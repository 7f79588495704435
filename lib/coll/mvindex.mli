(** Per-key multi-version index: a chained hash table whose cells each hold
    one key and that key's newest-first committed versions (a value or a
    tombstone, each with its commit stamp).  The snapshot state of a hashed
    collection shard: a commit publishes one version per written key.

    Publishers must be externally serialised (a commit region); snapshot
    readers resolve a key or fold the table at a pinned stamp without any
    lock.  Everything a reader can reach — a table, a bucket list, a
    version list — keeps resolving to the same value at every stamp at or
    above the [min_epoch] publishers pass: growth copies cells into a new
    table, unlinking rebuilds the bucket prefix, and trimming cuts a chain
    only below its first version stamped [<= min_epoch]. *)

type ('k, 'v) t

val init :
  hash:('k -> int) -> equal:('k -> 'k -> bool) -> int ->
  (('k -> 'v -> unit) -> unit) -> ('k, 'v) t
(** [init ~hash ~equal stamp iter] holds every binding [iter] yields
    (distinct keys), each as one version at [stamp], in a table sized for
    them (at least 16 buckets) and allocated in table order. *)

val publish : ('k, 'v) t -> min_epoch:int -> int -> 'k -> 'v option -> int
(** [publish t ~min_epoch stamp k v] records [k]'s value ([None]: removed)
    from [stamp] on, then reclaims in the bucket [k] lands in and in the
    next bucket of a sweep that goes round the table one bucket per
    publication: every chain there is trimmed below its first version
    stamped [<= min_epoch], and cells whose newest version is a tombstone
    stamped [<= min_epoch] are unlinked.  Inserting past one key per
    bucket sweeps the whole table into a new one, doubled only if the
    survivors need it.  Returns the number of versions reclaimed.  Stamps
    must grow per key; callers must be serialised. *)

val find_at : ('k, 'v) t -> int -> 'k -> 'v option
(** [find_at t ts k] is [k]'s newest version stamped [<= ts] ([None] for a
    tombstone or a key with no such version). *)

val fold_at : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> int -> 'a -> 'a
(** Fold over the bindings present at stamp [ts], in table order, over
    the table as it was when the fold started: a growth or sweep during
    the fold (from [f] itself or a publisher elsewhere) does not change
    what it visits. *)

(** {2 Introspection} *)

val cells : ('k, 'v) t -> int
(** Cells linked from the current table, dead or alive (leak probe). *)

val longest_chain : ('k, 'v) t -> int
(** Longest per-key version chain; 0 when the index is empty. *)

val chain_length_of : ('k, 'v) t -> 'k -> int
(** Versions retained for one key; 0 when it has no cell. *)
