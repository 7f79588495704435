(* map_zipf: the paper's contended TestMap case on one shared
   [Txcoll.Host.Map] (default stripes).

   Keys [0, keys) hold balances, and keys are drawn Zipf(0.99), scattered
   over the key space.  The read share is the paper's TestMap mix
   (Figure 1: 80% get, 20% put or remove).  A read is a transaction
   finding one key under a semantic read lock.  A write is one transfer
   transaction (find a, find b, put a (va - x), put b (vb + x)); 1 write
   in 20 also inserts or removes a key of a separate churn range, which
   moves the map's size facet.  The traffic has no scan: TestMap has
   none.  The scan class is the audit instead, a snapshot fold of the
   whole map that must see the conserved sum, run [Driver.quiescent_scans]
   times once the traffic has stopped.
   Most time goes to txcoll locks, store buffers and commit regions; tvars
   are barely touched. *)

module Stm = Tcc_stm.Stm
module M = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
open Workload

let default_keys = 1 lsl 17
let initial_balance = 1000
let churn_keys = 4096

(* Request kinds in [op]. *)
let k_transfer = 0
let k_transfer_churn = 1
let k_read = 2

type inputs = {
  keys : int;
  op : Samples.vec array; (* per domain *)
  a : Samples.vec array;
  b : Samples.vec array;
  x : Samples.vec array; (* transfer amount, or churn key *)
  per_domain : int;
}

(* Zipf(s) ranks over [0, n) by inverse CDF; rank r is scattered to key
   (r * odd) mod n, a bijection since n is a power of two. *)
let zipf_sampler ~n ~s =
  let cdf = Bigarray.(Array1.create float64 c_layout n) in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float (r + 1)) s);
    cdf.{r} <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.{mid} < u then lo := mid + 1 else hi := mid
    done;
    (!lo * 0x9E3779B1) land (n - 1)

let generate ?(keys = default_keys) ~seed ~domains ~per_domain () =
  if keys land (keys - 1) <> 0 then invalid_arg "Map_zipf: keys must be 2^k";
  let zipf = zipf_sampler ~n:keys ~s:0.99 in
  let col () = Array.init domains (fun _ -> Samples.vec per_domain) in
  let op = col () and a = col () and b = col () and x = col () in
  for d = 0 to domains - 1 do
    let rng = Random.State.make [| seed; 0x2a1f; d |] in
    for i = 0 to per_domain - 1 do
      let ka = zipf rng in
      let rec other () =
        let kb = zipf rng in
        if kb = ka then other () else kb
      in
      a.(d).{i} <- ka;
      b.(d).{i} <- other ();
      let r = Random.State.int rng 100 in
      if r < 80 then op.(d).{i} <- k_read
      else if Random.State.int rng 20 = 0 then begin
        op.(d).{i} <- k_transfer_churn;
        x.(d).{i} <- keys + Random.State.int rng churn_keys
      end
      else begin
        op.(d).{i} <- k_transfer;
        x.(d).{i} <- 1 + Random.State.int rng 50
      end
    done
  done;
  { keys; op; a; b; x; per_domain }

type state = {
  inp : inputs;
  m : int M.t;
  size_delta : int array; (* per domain, padded: committed inserts - removes *)
}

let pad = 8
let total inp = inp.keys * initial_balance

let setup inp =
  let h = Coll.Chain_hashmap.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  for key = 0 to inp.keys - 1 do
    Coll.Chain_hashmap.add h key initial_balance
  done;
  let m = M.wrap h in
  { inp; m; size_delta = Array.make (Array.length inp.op * pad) 0 }

let find c m k =
  match span2 c Trace.map_find M.find m k with
  | Some v -> v
  | None -> fail "map_zipf: key %d missing" k

let sum_values m () = M.fold (fun _ v acc -> acc + v) m 0

let request st c i =
  let inp = st.inp and m = st.m and d = c.dom in
  let op = inp.op.(d).{i} and ka = inp.a.(d).{i} and kb = inp.b.(d).{i} in
  if op = k_read then begin
    atomic c (fun () -> ignore (find c m ka));
    read
  end
  else begin
    let x = inp.x.(d).{i} in
    let churn = op = k_transfer_churn in
    let amount = if churn then 1 else x in
    let delta =
      atomic c (fun () ->
          let va = find c m ka in
          let vb = find c m kb in
          ignore (span3 c Trace.map_put M.put m ka (va - amount));
          ignore (span3 c Trace.map_put M.put m kb (vb + amount));
          if not churn then 0
          else
            match span2 c Trace.map_find M.find m x with
            | None ->
                ignore (span3 c Trace.map_put M.put m x 0);
                1
            | Some _ ->
                ignore (span2 c Trace.map_remove M.remove m x);
                -1)
    in
    st.size_delta.(d * pad) <- st.size_delta.(d * pad) + delta;
    write
  end

let audit st () =
  let s = Stm.snapshot (sum_values st.m) in
  if s <> total st.inp then fail "map_zipf: audit saw sum %d" s

let check st =
  let inp = st.inp in
  let sum = Stm.snapshot (fun () -> sum_values st.m ()) in
  let delta = Array.fold_left ( + ) 0 st.size_delta in
  [
    ("map_zipf.sum_conserved", sum = total inp);
    ("map_zipf.size_matches_ledger", M.size st.m = inp.keys + delta);
    ("map_zipf.outstanding_locks_zero", M.outstanding_locks st.m = 0);
  ]

let workload inp =
  {
    name = "map_zipf";
    per_domain = inp.per_domain;
    setup =
      (fun () ->
        let st = setup inp in
        {
          run = request st;
          quiescent_scan = Some (audit st);
          check = (fun () -> check st);
          layer = (fun () -> []);
        });
  }
