(* places_audit: read-dominated traffic with writes beside it on one
   [Places] store (2 places, Eager replication) over 4096 keys on its
   sorted side, a working set that fits in one core's L2.

   9 requests in 10 are snapshot reads of 4 random keys; 1 in 10 is an
   atomic transfer between two random keys (about half cross places);
   1 in 200 is a snapshot audit folding every key, which must see the
   conserved sum.  It exercises the abort-free snapshot path,
   version-chain publication and replication inside commit, and bypasses
   the abort and contention machinery that map_zipf stresses. *)

module Stm = Tcc_stm.Stm
open Workload

let default_keys = 4096
let places = 2
let initial_balance = 1000
let reads_per_request = 4

let k_read = 0
let k_write = 1
let k_audit = 2

type inputs = {
  keys : int;
  op : Samples.vec array; (* per domain *)
  key : Samples.vec array; (* [reads_per_request] keys per request *)
  x : Samples.vec array; (* transfer amount *)
  per_domain : int;
}

let generate ?(keys = default_keys) ~seed ~domains ~per_domain () =
  let col n = Array.init domains (fun _ -> Samples.vec n) in
  let op = col per_domain and x = col per_domain in
  let key = col (per_domain * reads_per_request) in
  for d = 0 to domains - 1 do
    let rng = Random.State.make [| seed; 0x91ace; d |] in
    for i = 0 to per_domain - 1 do
      let r = Random.State.int rng 200 in
      op.(d).{i} <- (if r = 0 then k_audit else if r <= 20 then k_write else k_read);
      let base = i * reads_per_request in
      for j = 0 to reads_per_request - 1 do
        key.(d).{base + j} <- Random.State.int rng keys
      done;
      while key.(d).{base + 1} = key.(d).{base} do
        key.(d).{base + 1} <- Random.State.int rng keys
      done;
      x.(d).{i} <- 1 + Random.State.int rng 50
    done
  done;
  { keys; op; key; x; per_domain }

type state = {
  inp : inputs;
  p : int Places.t;
  writes : int array; (* per domain, padded *)
  shipped0 : int; (* replication batches shipped by the set-up *)
}

let pad = 8
let total inp = inp.keys * initial_balance

let setup inp =
  let p =
    Places.create ~place_count:places ~key_space:inp.keys ~mode:Places.Eager ()
  in
  let batch = 256 in
  let k = ref 0 in
  while !k < inp.keys do
    let lo = !k in
    Stm.atomic (fun () ->
        for key = lo to min inp.keys (lo + batch) - 1 do
          ignore (Places.sorted_put p key initial_balance)
        done);
    k := lo + batch
  done;
  {
    inp;
    p;
    writes = Array.make (Array.length inp.op * pad) 0;
    shipped0 = Places.batches_shipped p;
  }

let find c p k =
  match span2 c Trace.places_find Places.sorted_find p k with
  | Some v -> v
  | None -> fail "places_audit: key %d missing" k

let audit_sum p () = Places.sorted_fold (fun _ v acc -> acc + v) p 0

let request st c i =
  let inp = st.inp and p = st.p and d = c.dom in
  let base = i * reads_per_request in
  let keys = inp.key.(d) in
  let op = inp.op.(d).{i} in
  if op = k_read then begin
    snapshot c (fun () ->
        for j = base to base + reads_per_request - 1 do
          ignore (find c p keys.{j})
        done);
    read
  end
  else if op = k_write then begin
    let a = keys.{base} and b = keys.{base + 1} and x = inp.x.(d).{i} in
    atomic c (fun () ->
        let va = find c p a in
        let vb = find c p b in
        ignore (span3 c Trace.places_put Places.sorted_put p a (va - x));
        ignore (span3 c Trace.places_put Places.sorted_put p b (vb + x)));
    st.writes.(d * pad) <- st.writes.(d * pad) + 1;
    write
  end
  else begin
    let s = snapshot c (fun () -> span2 c Trace.places_fold audit_sum p ()) in
    if s <> total inp then fail "places_audit: audit saw sum %d" s;
    scan
  end

let check st =
  let inp = st.inp and p = st.p in
  [
    ( "places_audit.sum_conserved",
      Stm.snapshot (audit_sum p) = total inp );
    ( "places_audit.size",
      Stm.snapshot (fun () -> Places.sorted_size p) = inp.keys );
    ("places_audit.replica_agrees", Places.replica_agrees p);
    ("places_audit.outstanding_locks_zero", Places.outstanding_locks p = 0);
  ]

let workload inp =
  {
    name = "places_audit";
    per_domain = inp.per_domain;
    setup =
      (fun () ->
        let st = setup inp in
        {
          run = request st;
          quiescent_scan = None;
          check = (fun () -> check st);
          layer =
            (fun () ->
              let writes = Array.fold_left ( + ) 0 st.writes in
              [
                ( "places.batches_shipped_per_write",
                  if writes = 0 then 0.
                  else
                    float (Places.batches_shipped st.p - st.shipped0)
                    /. float writes );
                ("places.max_lag", float (Places.max_lag_observed st.p));
              ]);
        });
  }
