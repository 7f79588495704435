(* jbb: Figure 4's SPECjbb workload on [Jbb.Multi_jbb] with two
   warehouses and remote_fraction 0.1.

   The op sequence is drawn with [Model.pick_op] (the [Model.op_mix]
   weights) before timing; each op's own parameters are drawn inside
   [Multi_jbb.run_op] from a per-domain Random.State that every episode
   restarts from the same seed.  new_order, payment and delivery are
   writes, order_status (one customer's last order) is the read and
   stock_level (a count over recent orders) the scan: one op per read or
   scan class, since a percentile of two ops' mixed latencies flips
   between their modes.  The tvar-heavy ops exercise stm_ds open-nested
   counters and uid generators, interval-partitioned sorted maps and the
   calibrated application compute ([Host_jbb.busy]).  Those calls happen
   inside [Multi_jbb.run_op], where the benchmark cannot span them, so
   jbb's transactions get no [stm.atomic] span: its self time would be
   the whole op.  The per-op [jbb.*] spans time them instead.

   The order table grows with completed work, and order_status' view
   scans the interval inside its critical regions, so an episode is a
   fixed number of requests: a faster commit is then never measured on a
   bigger table. *)

module J = Jbb.Multi_jbb
module Model = Jbb.Model
open Workload

let warehouses = 2
let remote_fraction = 0.1

(* Ops in [op]: the index of a [Model.op_kind]. *)
let kinds =
  Model.[| New_order; Payment; Order_status; Delivery; Stock_level |]

type inputs = {
  op : Samples.vec array; (* per domain *)
  rng_seed : int array; (* per domain, for Multi_jbb's own draws *)
  per_domain : int;
}

let index_of kind =
  let rec go i = if kinds.(i) = kind then i else go (i + 1) in
  go 0

let generate ~seed ~domains ~per_domain () =
  let op = Array.init domains (fun _ -> Samples.vec per_domain) in
  for d = 0 to domains - 1 do
    let rng = Random.State.make [| seed; 0x1bb; d |] in
    for i = 0 to per_domain - 1 do
      op.(d).{i} <- index_of (Model.pick_op rng)
    done
  done;
  {
    op;
    rng_seed = Array.init domains (fun d -> Hashtbl.hash (seed, 0x2bb, d));
    per_domain;
  }

type state = {
  inp : inputs;
  j : J.t;
  rngs : Random.State.t array;
  new_orders : int array; (* per domain, padded *)
  payments : int array;
}

let pad = 8

let setup inp =
  let j = J.create ~remote_fraction ~warehouses () in
  let n = Array.length inp.op in
  {
    inp;
    j;
    rngs = Array.map (fun s -> Random.State.make [| s |]) inp.rng_seed;
    new_orders = Array.make (n * pad) 0;
    payments = Array.make (n * pad) 0;
  }

let op_span =
  Trace.
    [| jbb_new_order; jbb_payment; jbb_order_status; jbb_delivery;
       jbb_stock_level |]

let request st c i =
  let d = c.dom in
  let op = st.inp.op.(d).{i} in
  let kind = kinds.(op) in
  let s = Trace.enter c.tr op_span.(op) in
  J.run_op ~run:(atomic_unspanned c) st.j st.rngs.(d) kind;
  Trace.leave c.tr s;
  match kind with
  | Model.New_order ->
      st.new_orders.(d * pad) <- st.new_orders.(d * pad) + 1;
      write
  | Model.Payment ->
      st.payments.(d * pad) <- st.payments.(d * pad) + 1;
      write
  | Model.Delivery -> write
  | Model.Order_status -> read
  | Model.Stock_level -> scan

let check st =
  let sum a = Array.fold_left ( + ) 0 a in
  [
    ( "jbb.audit",
      J.audit st.j ~new_orders:(sum st.new_orders) ~payments:(sum st.payments)
    );
    ( "jbb.outstanding_locks_zero",
      J.OrderMap.outstanding_locks st.j.order = 0
      && J.OrderMap.outstanding_locks st.j.neworder = 0
      && J.HistMap.outstanding_locks st.j.history = 0 );
  ]

let workload inp =
  {
    name = "jbb";
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
              [ ("jbb.order_rows_end", float (J.OrderMap.size st.j.order)) ]);
        });
  }
