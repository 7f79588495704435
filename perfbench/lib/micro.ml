(* Single-domain floors under the workloads' per-layer figures: the same
   kind of key stream through one layer with the layers above it taken
   away.  Each figure is the median over [reps] timed batches. *)

module Stm = Tcc_stm.Stm
module Counter = Stm_ds.Stm_counter
module Uidgen = Stm_ds.Stm_uidgen
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

let reps = 15

(* Median ns per call of [f batch], which makes [batch] calls. *)
let per_call ~batch f =
  f batch;
  Samples.median_float
    (List.init reps (fun _ ->
         let t0 = Clock.now () in
         f batch;
         float (Clock.now () - t0) /. float batch))

let clock_ns () =
  per_call ~batch:10_000 (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Clock.now ()))
      done)

(* map_zipf's key stream through a bare [Coll.Chain_hashmap]: per pair,
   find a, find b, replace a, replace b.  ns per operation. *)
let chain_hashmap_op_ns ~seed =
  let keys = Map_zipf.default_keys in
  let zipf = Map_zipf.zipf_sampler ~n:keys ~s:0.99 in
  let rng = Random.State.make [| seed; 0xc011 |] in
  let n = 1 lsl 14 in
  let a = Array.init n (fun _ -> zipf rng) and b = Array.init n (fun _ -> zipf rng) in
  let h = Coll.Chain_hashmap.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  for k = 0 to keys - 1 do
    Coll.Chain_hashmap.add h k 1000
  done;
  let get k = Option.value ~default:0 (Coll.Chain_hashmap.find h k) in
  per_call ~batch:n (fun n ->
      for i = 0 to n - 1 do
        let va = get a.(i) and vb = get b.(i) in
        Coll.Chain_hashmap.add h a.(i) (va - 1);
        Coll.Chain_hashmap.add h b.(i) (vb + 1)
      done)
  /. 4.

(* places_audit's uniform key stream through a bare [Coll.Ordmap]. *)
let ordmap_find_ns ~seed =
  let keys = Places_audit.default_keys in
  let rng = Random.State.make [| seed; 0x0fd |] in
  let n = 1 lsl 14 in
  let ks = Array.init n (fun _ -> Random.State.int rng keys) in
  let m = Coll.Ordmap.create ~compare:Int.compare () in
  for k = 0 to keys - 1 do
    Coll.Ordmap.add m k 1000
  done;
  per_call ~batch:n (fun n ->
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (Coll.Ordmap.find m ks.(i)))
      done)

let empty_atomic_ns () =
  per_call ~batch:10_000 (fun n ->
      for _ = 1 to n do
        Stm.atomic ignore
      done)

let empty_snapshot_ns () =
  per_call ~batch:10_000 (fun n ->
      for _ = 1 to n do
        Stm.snapshot ignore
      done)

(* Cost of one call of [op] made [inner] times inside a transaction, net
   of the empty transaction. *)
let inside_atomic_ns ~inner op =
  let empty = empty_atomic_ns () in
  let full =
    per_call ~batch:1000 (fun n ->
        for _ = 1 to n do
          Stm.atomic (fun () ->
              for _ = 1 to inner do
                op ()
              done)
        done)
  in
  (full -. empty) /. float inner

let counter_incr_open_ns () =
  let c = Counter.create () in
  inside_atomic_ns ~inner:16 (fun () -> Counter.incr_open c)

let uidgen_next_ns () =
  let g = Uidgen.create () in
  inside_atomic_ns ~inner:16 (fun () -> ignore (Uidgen.next g))

(* Minor words one [Txcoll] map put adds to a transaction, on a map of
   map_zipf's size. *)
let map_put_words ~seed =
  let keys = Map_zipf.default_keys in
  let m = Map.create () in
  for k = 0 to keys - 1 do
    ignore (Map.put m k 1000)
  done;
  let rng = Random.State.make [| seed; 0x9a7 |] in
  let n = 10_000 in
  let ks = Array.init n (fun _ -> Random.State.int rng keys) in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float n
  in
  let empty =
    words (fun () ->
        Array.iter (fun k -> Stm.atomic (fun () -> ignore (Sys.opaque_identity k))) ks)
  in
  let put =
    words (fun () ->
        Array.iter (fun k -> Stm.atomic (fun () -> ignore (Map.put m k 1))) ks)
  in
  put -. empty

(* A snapshot find on places_audit's keys in a bare [Txcoll] sorted map:
   the rung under [places.sorted_find_ns]. *)
let sorted_map_find_ns ~seed =
  let keys = Places_audit.default_keys in
  let m = Sorted.create () in
  Stm.atomic (fun () ->
      for k = 0 to keys - 1 do
        ignore (Sorted.put m k 1000)
      done);
  let rng = Random.State.make [| seed; 0x50f |] in
  let inner = 16 in
  let n = 1000 in
  let ks = Array.init (n * inner) (fun _ -> Random.State.int rng keys) in
  let empty = empty_snapshot_ns () in
  let full =
    per_call ~batch:n (fun n ->
        for i = 0 to n - 1 do
          Stm.snapshot (fun () ->
              for j = i * inner to ((i + 1) * inner) - 1 do
                ignore (Sys.opaque_identity (Sorted.find m ks.(j)))
              done)
        done)
  in
  (full -. empty) /. float inner

let jbb_busy_us () =
  per_call ~batch:100 (fun n ->
      for _ = 1 to n do
        Jbb.Host_jbb.busy Jbb.Model.default_params.base_work
      done)
  /. 1000.

let all ~seed =
  [
    ("harness.clock_ns", clock_ns ());
    ("coll.chain_hashmap.op_ns", chain_hashmap_op_ns ~seed);
    ("coll.ordmap.find_ns", ordmap_find_ns ~seed);
    ("stm.empty_atomic_ns", empty_atomic_ns ());
    ("stm.empty_snapshot_ns", empty_snapshot_ns ());
    ("stm_ds.counter_incr_open_ns", counter_incr_open_ns ());
    ("stm_ds.uidgen_next_ns", uidgen_next_ns ());
    ("txcoll.map.put_words", map_put_words ~seed);
    ("txcoll.sorted_map.find_ns", sorted_map_find_ns ~seed);
    ("jbb.busy_us", jbb_busy_us ());
  ]
