(* Per-key multi-version index: a chained hash table whose cells each hold
   one key and that key's committed versions, newest first, each stamped
   with the commit-clock value that published it.  It is the snapshot
   state of a hashed collection shard: a commit publishes one version per
   written key instead of path-copying a whole shard image.

   Layout (the per-key word cost is what a shard shadow pays per binding):
   - a cell is [Cell {key; versions; next}], 4 words;
   - a version is [Put {stamp; value; older}] (4 words) or a tombstone
     [Del {stamp; older}] (3 words);
   - the bucket array sits behind an [Atomic.t] and is replaced whole on
     growth, so a reader takes one consistent table per operation.

   Concurrency contract:
   - publishers are externally serialised (the shard's commit region);
   - readers take no lock: they [Atomic.get] the table once and walk
     bucket lists and version lists that a writer may concurrently
     extend.  Everything a reader can reach keeps resolving to the same
     value at every stamp >= the reclamation epoch:
     - a new key is a new cell pushed on its bucket head; a new version is
       pushed on its cell's head — both carry stamps above any pinned
       reader's (the pin waits out publications at or below its stamp);
     - growth copies the live cells into a fresh table and publishes it
       once; the old table and its cells stay intact for readers that
       hold them;
     - unlinking a dead cell rebuilds the bucket prefix in front of it
       instead of mutating a [next] link;
     - trimming cuts a chain only below its first version stamped
       <= [min_epoch], which every reader at or above the epoch resolves
       to (or to something newer) before reaching the cut.

   Reclamation is lazy, done by publishers.  Each publication trims every
   chain of the bucket it lands in and of one more bucket, taken in turn
   round the table, and unlinks their dead cells (a cell whose newest
   version is a tombstone stamped <= [min_epoch] resolves absent for every
   reachable stamp); so a key no one writes again is still trimmed within
   one pass of the table.  It also trims the previous publication's key,
   whose shadowed version its own epoch could not yet drop.  A growth
   sweeps the whole table and stays at the same size when sweeping alone
   makes room.  There is no per-key minimum: a key written once costs one
   version. *)

type 'v version =
  | Gone
  | Put of { stamp : int; value : 'v; mutable older : 'v version }
  | Del of { stamp : int; mutable older : 'v version }

type ('k, 'v) cell =
  | Nil
  | Cell of { key : 'k; mutable versions : 'v version; next : ('k, 'v) cell }

type ('k, 'v) view = ('k, 'v) cell array

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  table : ('k, 'v) view Atomic.t;
  mutable cells : int; (* cells linked from the current table *)
  (* publisher-only state: *)
  mutable last : 'v version; (* newest version published *)
  mutable cursor : int; (* next bucket of the round-the-table sweep *)
  mutable reclaimed : int; (* per-publication scratch *)
}

let min_capacity = 16

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

let make ~capacity ~hash ~equal =
  let len = pow2_at_least capacity min_capacity in
  {
    hash;
    equal;
    table = Atomic.make (Array.make len Nil);
    cells = 0;
    last = Gone;
    cursor = 0;
    reclaimed = 0;
  }

(* Multiplicative mixing before masking: a striped owner routes keys to
   shards by [hash mod stripes], so the low bits of the hash are nearly
   constant within one index. *)
let slot (tbl : _ view) h =
  ((h * 0x2545F4914F6CDD1D) lsr 32) land (Array.length tbl - 1)

let view t = Atomic.get t.table

let iter_cells f (tbl : _ view) =
  let rec go = function
    | Nil -> ()
    | Cell c ->
        f c.key c.versions;
        go c.next
  in
  Array.iter go tbl

(* ---------------- resolution ---------------- *)

let rec resolve ts = function
  | Gone -> None
  | Put p -> if p.stamp <= ts then Some p.value else resolve ts p.older
  | Del d -> if d.stamp <= ts then None else resolve ts d.older

let rec find_cell equal k = function
  | Nil -> Nil
  | Cell c as cell -> if equal c.key k then cell else find_cell equal k c.next

let find_at t ts k =
  let tbl = view t in
  match find_cell t.equal k tbl.(slot tbl (t.hash k)) with
  | Nil -> None
  | Cell c -> resolve ts c.versions

(* [resolve] without the option: a fold visits every key. *)
let rec fold_versions f k ts acc = function
  | Gone -> acc
  | Put p ->
      if p.stamp <= ts then f k p.value acc
      else fold_versions f k ts acc p.older
  | Del d -> if d.stamp <= ts then acc else fold_versions f k ts acc d.older

let rec fold_bucket f ts acc = function
  | Nil -> acc
  | Cell c -> fold_bucket f ts (fold_versions f c.key ts acc c.versions) c.next

let fold_at f t ts init =
  let tbl = view t in
  let acc = ref init in
  for i = 0 to Array.length tbl - 1 do
    acc := fold_bucket f ts !acc tbl.(i)
  done;
  !acc

(* ---------------- reclamation ---------------- *)

let rec chain_length = function
  | Gone -> 0
  | Put { older; _ } | Del { older; _ } -> 1 + chain_length older

(* Keep the newest-first prefix through the first version stamped <=
   [min_epoch]; drop what lies below it.  Returns the number dropped. *)
let rec trim ~min_epoch = function
  | Gone -> 0
  | Put p when p.stamp <= min_epoch ->
      let older = p.older in
      if older == Gone then 0
      else begin
        p.older <- Gone;
        chain_length older
      end
  | Del d when d.stamp <= min_epoch ->
      let older = d.older in
      if older == Gone then 0
      else begin
        d.older <- Gone;
        chain_length older
      end
  | Put { older; _ } | Del { older; _ } -> trim ~min_epoch older

let dead ~min_epoch = function
  | Del d -> d.stamp <= min_epoch
  | Put _ | Gone -> false

(* Trim every chain of a bucket and unlink its dead cells, copying the
   cells in front of the last dead one; a bucket without dead cells comes
   back physically unchanged.  Counts into [t.cells] / [t.reclaimed]. *)
let rec sweep t ~min_epoch = function
  | Nil -> Nil
  | Cell c as cell ->
      let rest = sweep t ~min_epoch c.next in
      if dead ~min_epoch c.versions then begin
        t.cells <- t.cells - 1;
        t.reclaimed <- t.reclaimed + chain_length c.versions;
        rest
      end
      else begin
        t.reclaimed <- t.reclaimed + trim ~min_epoch c.versions;
        if rest == c.next then cell
        else Cell { key = c.key; versions = c.versions; next = rest }
      end

(* Sweep the whole table into a fresh one, doubling it only when the
   survivors would load it past one half.  Two passes over the old table:
   trim and count, then copy the survivors. *)
let regrow t ~min_epoch =
  let old = view t in
  let n = ref 0 in
  iter_cells
    (fun _ versions ->
      if dead ~min_epoch versions then
        t.reclaimed <- t.reclaimed + chain_length versions
      else begin
        t.reclaimed <- t.reclaimed + trim ~min_epoch versions;
        incr n
      end)
    old;
  let len = Array.length old in
  let tbl = Array.make (if 2 * !n > len then 2 * len else len) Nil in
  iter_cells
    (fun key versions ->
      if not (dead ~min_epoch versions) then begin
        let i = slot tbl (t.hash key) in
        tbl.(i) <- Cell { key; versions; next = tbl.(i) }
      end)
    old;
  t.cells <- !n;
  Atomic.set t.table tbl

(* ---------------- publication ---------------- *)

(* Bulk build, allocating each key's cell and version in table order so a
   fold of a freshly built index walks memory front to back. *)
let init ~hash ~equal stamp iter =
  let bindings = ref [] and n = ref 0 in
  iter (fun k v ->
      bindings := (k, v) :: !bindings;
      incr n);
  let t = make ~capacity:!n ~hash ~equal in
  let tbl = view t in
  let by_slot = Array.make (Array.length tbl) [] in
  List.iter
    (fun ((k, _) as b) ->
      let i = slot tbl (hash k) in
      by_slot.(i) <- b :: by_slot.(i))
    !bindings;
  Array.iteri
    (fun i bucket ->
      List.iter
        (fun (key, value) ->
          let versions = Put { stamp; value; older = Gone } in
          tbl.(i) <- Cell { key; versions; next = tbl.(i) })
        bucket)
    by_slot;
  t.cells <- !n;
  t

let publish t ~min_epoch stamp k v =
  (* The previous publication could not drop the version it shadowed (its
     own stamp was above its epoch); the epoch has usually passed it now. *)
  t.reclaimed <- trim ~min_epoch t.last;
  let tbl = view t in
  let i = slot tbl (t.hash k) in
  let head = tbl.(i) in
  let head =
    match (find_cell t.equal k head, v) with
    | Cell c, Some value ->
        c.versions <- Put { stamp; value; older = c.versions };
        t.last <- c.versions;
        head
    | Cell c, None ->
        (match c.versions with
        | Del _ -> () (* already absent at every later stamp *)
        | Put _ | Gone ->
            c.versions <- Del { stamp; older = c.versions };
            t.last <- c.versions);
        head
    | Nil, Some value ->
        t.cells <- t.cells + 1;
        t.last <- Gone;
        let versions = Put { stamp; value; older = Gone } in
        Cell { key = k; versions; next = head }
    | Nil, None -> head
  in
  let head' = sweep t ~min_epoch head in
  if head' != tbl.(i) then tbl.(i) <- head';
  let j = t.cursor land (Array.length tbl - 1) in
  t.cursor <- j + 1;
  if j <> i then begin
    let b = tbl.(j) in
    let b' = sweep t ~min_epoch b in
    if b' != b then tbl.(j) <- b'
  end;
  if t.cells > Array.length tbl then regrow t ~min_epoch;
  t.reclaimed

(* ---------------- introspection ---------------- *)

let cells t = t.cells

let longest_chain t =
  let best = ref 0 in
  iter_cells
    (fun _ versions -> best := max !best (chain_length versions))
    (view t);
  !best

let chain_length_of t k =
  let tbl = view t in
  match find_cell t.equal k tbl.(slot tbl (t.hash k)) with
  | Nil -> 0
  | Cell c -> chain_length c.versions
