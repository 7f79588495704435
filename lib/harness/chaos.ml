(* Seeded fault-injection (chaos) harness for the host STM and the
   transactional collection classes.

   A deterministic splitmix64 stream per worker domain drives injection
   through the {!Stm.Chaos} hook points, each kind with probability [p]:

   - [Chaos_attempt] (start of every top-level attempt): register a commit
     handler that raises; independently, an abort handler that raises.
     These exercise the protected handler execution: real collection
     handlers must still run and release their locks, and the failure must
     surface as [Stm.Handler_failure] with the right [committed] flag.
   - [Chaos_before_commit] (after the transaction body): spin, widening
     the window for real conflicts; independently, force a transparent
     retry.
   - [Chaos_in_commit] (inside the commit, after read validation, before
     the commit point): deliver a remote abort to the committing
     transaction itself — the Active/Committing status race of §4's
     program-directed abort; failing that, force a validation-style
     conflict.

   One driver, {!run}, soaks a {!scenario} under injection: worker domains
   run the scenario's transactions, record the effect of every one that
   commits in per-worker oracle models, and the driver checks the final
   committed state against the union of the models, then asserts zero
   leaked semantic locks and zero held commit regions.  A scenario may add
   a snapshot reader domain and a fault plan (the failover kill/recover
   controller).  On a single domain without a reader the whole schedule is
   deterministic: same seed, same injection counts, same final contents
   ({!report.fingerprint}). *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Queue = Txcoll.Host.Queue
module Dset = Txcoll.Host.Set (Txcoll.Host.Int_hashed)
module Dbag = Txcoll.Host.Bag (Txcoll.Host.Int_hashed)
module Dpq = Txcoll.Host.Priority_queue (Txcoll.Host.Int_ordered)
module Dcounter = Txcoll.Host.Counter

exception Chaos_fault of string
(* The only exception the injected handlers raise; anything else escaping
   a soak transaction is a real bug and fails the run. *)

(* One soak run.  Each field is set to more than one value by some caller;
   everything else is a constant of the harness. *)
type config = {
  seed : int;
  p : float;  (* probability of each injection kind at each hook point *)
  policy : Stm.Contention.policy;
  domains : int;  (* worker domains *)
  ops_per_domain : int;
  key_space : int;
      (* per-worker partition width; the failover store's total key
         space *)
  stripes : int;  (* key stripes of the striped scenario's map *)
  mode : Places.mode;  (* replication mode of the failover store *)
  kills : int;  (* kill/recover cycles of the failover fault plan *)
}

let config ?(policy = Stm.Contention.default) ?(domains = 2)
    ?(ops_per_domain = 800) ?(key_space = 64) ?(stripes = 16)
    ?(mode = Places.Eager) ?(kills = 3) ~seed p =
  {
    seed;
    p;
    policy;
    domains;
    ops_per_domain;
    key_space;
    stripes;
    mode;
    kills;
  }

let delay_spins = 200
let place_count = 4

let mode_name = function
  | Places.Eager -> "eager"
  | Places.Lazy _ -> "lazy"

(* ---------------- deterministic RNG (splitmix64) ---------------- *)

let sm_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_float st =
  Int64.to_float (Int64.shift_right_logical (sm_next st) 11) /. 9007199254740992.

let rand_int st n =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (sm_next st) 1) (Int64.of_int n))

let stream_of_seed seed index =
  ref (Int64.logxor (Int64.of_int ((seed * 0x9E3779B1) + index)) 0x5DEECE66DL)

(* Per-domain injection stream, set by [register_worker]; a domain that
   never registered (e.g. the checking main domain while the hook is still
   installed) gets a fixed seed-independent-of-identity stream, keeping
   single-domain runs fully deterministic. *)
let stream_key : int64 ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0L)

(* ---------------- failure context ---------------- *)

(* Every failure message a soak emits carries the seed, the soak section
   that produced it, and the most recent injection the reporting domain's
   own stream fired — plus, once per failing report, the line that
   replays the run.  The injection site is tracked per-domain so a
   worker's failure names its own last fault, not another domain's. *)

let last_injection_key : string ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref "none")

let note_injection site = Domain.DLS.get last_injection_key := site
let last_injection () = !(Domain.DLS.get last_injection_key)

let fail_context cfg ~section =
  Printf.sprintf "[seed=%d section=%s last_injection=%s] " cfg.seed section
    (last_injection ())

let pp_config ppf c =
  Format.fprintf ppf
    "{seed=%d; p=%g; policy=%s; domains=%d; ops_per_domain=%d; \
     key_space=%d; stripes=%d; mode=%s; kills=%d}"
    c.seed c.p
    (Stm.Contention.name c.policy)
    c.domains c.ops_per_domain c.key_space c.stripes
    (match c.mode with
    | Places.Eager -> "eager"
    | Places.Lazy { max_lag } -> Printf.sprintf "lazy(max_lag=%d)" max_lag)
    c.kills

(* ---------------- injection counters ---------------- *)

let injected_conflicts = Atomic.make 0
let injected_remote_aborts = Atomic.make 0
let injected_handler_faults = Atomic.make 0
let injected_delays = Atomic.make 0

let reset_counters () =
  Atomic.set injected_conflicts 0;
  Atomic.set injected_remote_aborts 0;
  Atomic.set injected_handler_faults 0;
  Atomic.set injected_delays 0

let register_worker cfg ~index =
  Domain.DLS.get stream_key := !(stream_of_seed cfg.seed (index + 1));
  Domain.DLS.get last_injection_key := "none"

(* One draw from the domain's stream; on a hit, count the injection and
   name its site. *)
let fire cfg st counter site =
  rand_float st < cfg.p
  && begin
       Atomic.incr counter;
       note_injection site;
       true
     end

let hook cfg ev =
  let st = Domain.DLS.get stream_key in
  if Int64.equal !st 0L then st := !(stream_of_seed cfg.seed 0);
  let fire = fire cfg st in
  match (ev : Stm.Chaos.event) with
  | Chaos_attempt ->
      if fire injected_handler_faults "commit-handler-fault@attempt" then
        Stm.on_commit (fun () -> raise (Chaos_fault "commit-handler"));
      if fire injected_handler_faults "abort-handler-fault@attempt" then
        Stm.on_abort (fun () -> raise (Chaos_fault "abort-handler"))
  | Chaos_before_commit ->
      if fire injected_delays "delay@before-commit" then
        for _ = 1 to delay_spins do
          Domain.cpu_relax ()
        done;
      if fire injected_conflicts "conflict@before-commit" then
        ignore (Stm.retry_now ())
  | Chaos_in_commit ->
      (* Self-directed remote abort: lands exactly in the
         Active/Committing window the status-race fix covers. *)
      if fire injected_remote_aborts "remote-abort@in-commit" then
        ignore (Stm.remote_abort (Stm.current ()))
      else if fire injected_conflicts "conflict@in-commit" then
        ignore (Stm.retry_now ())

let install cfg =
  reset_counters ();
  Domain.DLS.get stream_key := !(stream_of_seed cfg.seed 0);
  Domain.DLS.get last_injection_key := "none";
  Stm.Chaos.set_hook (Some (hook cfg))

let uninstall () = Stm.Chaos.set_hook None

(* ---------------- scenario interface ---------------- *)

(* One worker domain's view: its index, its op stream, and its oracle
   model — the effects of every transaction it saw commit, in named keyed
   tables and token bags.  Workers write disjoint key partitions, so the
   union of the workers' tables is the linearizable outcome; tokens are
   globally unique, so bags compare as multisets. *)
type worker = {
  index : int;
  rng : int64 ref;
  tables : (string, (int, int) Hashtbl.t) Hashtbl.t;
  bags : (string, int list) Hashtbl.t;
  mutable committed : int;
  mutable errors : string list;
  context : unit -> string;  (* failure prefix of this worker *)
}

let table w name =
  match Hashtbl.find_opt w.tables name with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 64 in
      Hashtbl.replace w.tables name t;
      t

let bind w name k v = Hashtbl.replace (table w name) k v
let unbind w name k = Hashtbl.remove (table w name) k

let push w name x =
  Hashtbl.replace w.bags name
    (x :: Option.value (Hashtbl.find_opt w.bags name) ~default:[])

let fail w msg = w.errors <- (w.context () ^ msg) :: w.errors

(* One worker step: a transaction body, and its effect on the worker's
   model, applied iff the transaction committed — including commits
   surfaced through [Handler_failure { committed = true }]. *)
type op = { body : unit -> unit; model : unit -> unit }

let txn body model = { body; model }
let unmodelled body = { body; model = ignore }

(* What a scenario's final checks see once every worker has joined. *)
type final = {
  check : string -> bool -> unit;
  committed : int;  (* transactions the workers saw commit *)
  expect : string -> (int, int) Hashtbl.t;  (* union of the workers' tables *)
  bag : string -> int list;  (* all workers' bags, concatenated *)
}

(* A fault plan: [inject progress] is a controller run on the main domain
   while the workers run; it reads the number of worker ops done so far
   and returns the number of faults it executed.  [max_lag] reports the
   replication-lag high-water mark of the faulted store. *)
type fault = { inject : (unit -> int) -> int; max_lag : unit -> int }

type instance = {
  step : worker -> int -> op;
      (* [step w] sets up worker [w]; the result builds op [i] *)
  final : final -> string;
      (* runs the final checks; returns the state to fingerprint *)
  leaks : (string * (unit -> int)) list;  (* outstanding-lock probes *)
  reader : ((string -> unit) -> unit) option;
      (* checks run inside each [Stm.snapshot] section of a reader domain *)
  fault : fault option;
}

type scenario = {
  name : string;  (* section prefix of its failure messages *)
  target : string;  (* the bench target that runs it *)
  salt : int;  (* xor'd into the seed for the workers' op streams *)
  make : config -> instance;
}

(* ---------------- shared checks ---------------- *)

(* Model-vs-actual: [actual] holds exactly the bindings of the union
   table [model] (default [what]). *)
let agrees f ?model what actual =
  let expect = f.expect (Option.value model ~default:what) in
  f.check (what ^ " size vs model")
    (List.length actual = Hashtbl.length expect);
  List.iter
    (fun (k, v) ->
      f.check
        (Printf.sprintf "%s binding %d agrees with model" what k)
        (Hashtbl.find_opt expect k = Some v))
    actual

let rec strictly_ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

let ascending f what l =
  f.check (what ^ " iteration ascending") (strictly_ascending l)

let drain poll =
  let rec go acc =
    match poll () with Some x -> go (x :: acc) | None -> List.rev acc
  in
  go []

let fp_keys tag l =
  String.concat "" (List.map (Printf.sprintf "%s%d;" tag) l)

let fp_bindings tag l =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s%d=%d;" tag k v) l)

(* A consistent cut inside one snapshot section: the two mirrored
   collections agree on every key, each fold counts [size] bindings (the
   struct chain and the shard chains come from the same committed cut,
   across every stripe and interval boundary), and the sorted side
   iterates strictly ascending.  [sizes] lists (collection, fold count,
   size). *)
let snapshot_cut fail ~keys ~mirror:(find_a, find_b) ~sizes ~sorted_iter =
  let show = function Some v -> string_of_int v | None -> "-" in
  for k = 0 to keys - 1 do
    let a = find_a k and b = find_b k in
    if a <> b then
      fail
        (Printf.sprintf "torn mirror at key %d: map=%s sorted=%s" k (show a)
           (show b))
  done;
  List.iter
    (fun (what, n, s) ->
      if n <> s then
        fail (Printf.sprintf "%s fold=%d disagrees with size=%d" what n s))
    sizes;
  let prev = ref min_int in
  sorted_iter (fun k ->
      if k <= !prev then
        fail (Printf.sprintf "sorted fold not ascending at %d" k);
      prev := k)

(* ---------------- the driver ---------------- *)

type report = {
  config : config;
  ok : bool;
  errors : string list;
  committed : int;
  injections : int * int * int * int;
      (* conflicts, remote aborts, handler faults, delays *)
  fingerprint : string;
  snapshots : int;  (* reader sections completed; 0 without a reader *)
  denials : int;  (* reader pins refused by a promotion *)
  place_down : int;  (* worker transactions refused by a down place *)
  kills : int;  (* faults the plan executed *)
  committed_after_fault : int;  (* commits after the plan finished *)
  max_lag : int;  (* replication-lag high-water mark *)
}

(* The line that replays a failing run: the scenario and its full config,
   then the bench target that runs the scenario. *)
let repro sc cfg =
  Format.asprintf
    "reproduce: Harness.Chaos.run Harness.Chaos.%s %a; bench target: \
     CHAOS_SEEDS=%d dune exec bench/main.exe -- %s"
    sc.name pp_config cfg cfg.seed sc.target

let run sc cfg =
  install cfg;
  let inst = sc.make cfg in
  let context part () = fail_context cfg ~section:(sc.name ^ "." ^ part) in
  let ops_done = Atomic.make 0 and fault_over = Atomic.make false in
  let committed_after_fault = Atomic.make 0 and place_down = Atomic.make 0 in
  let worker index =
    register_worker cfg ~index;
    let w =
      {
        index;
        rng = stream_of_seed (cfg.seed lxor sc.salt) (index + 1);
        tables = Hashtbl.create 4;
        bags = Hashtbl.create 4;
        committed = 0;
        errors = [];
        context = context "worker";
      }
    in
    let commit op =
      w.committed <- w.committed + 1;
      if Atomic.get fault_over then Atomic.incr committed_after_fault;
      op.model ()
    in
    let step = inst.step w in
    for i = 1 to cfg.ops_per_domain do
      let op = step i in
      (match Stm.atomic ~policy:cfg.policy op.body with
      | () -> commit op
      | exception Stm.Place_down _ ->
          (* Refused strictly before the commit point: no effect, no model
             change.  Back off briefly; recovery is concurrent. *)
          Atomic.incr place_down;
          Unix.sleepf 0.0002
      | exception Stm.Handler_failure { committed; failures } ->
          List.iter
            (function
              | Chaos_fault _ -> ()
              | e ->
                  fail w
                    ("unexpected handler failure: " ^ Printexc.to_string e))
            failures;
          if committed then commit op
      | exception e -> fail w ("transaction raised: " ^ Printexc.to_string e));
      Atomic.incr ops_done
    done;
    w
  in
  let stop = Atomic.make false in
  let reader check () =
    let errors = ref [] and snapshots = ref 0 and denials = ref 0 in
    let fail msg = errors := (context "reader" () ^ msg) :: !errors in
    while not (Atomic.get stop) do
      match Stm.snapshot (fun () -> check fail) with
      | () -> incr snapshots
      | exception Stm.Place_down _ ->
          (* Pin predates a promotion: the history it needs died with the
             old master.  Re-pin and continue. *)
          incr denials;
          Unix.sleepf 0.0002
    done;
    (!snapshots, !denials, List.rev !errors)
  in
  let reader_dom =
    Option.map (fun check -> Domain.spawn (reader check)) inst.reader
  in
  let doms =
    List.init cfg.domains (fun index -> Domain.spawn (fun () -> worker index))
  in
  let kills =
    match inst.fault with
    | None -> 0
    | Some f ->
        let n = f.inject (fun () -> Atomic.get ops_done) in
        Atomic.set fault_over true;
        n
  in
  let workers = List.map Domain.join doms in
  Atomic.set stop true;
  let snapshots, denials, reader_errors =
    match reader_dom with None -> (0, 0, []) | Some d -> Domain.join d
  in
  uninstall ();
  let errors = ref [] in
  let add e = errors := e :: !errors in
  List.iter (fun (w : worker) -> List.iter add (List.rev w.errors)) workers;
  List.iter add reader_errors;
  let check name ok = if not ok then add (context "final" () ^ name) in
  let committed =
    List.fold_left (fun a (w : worker) -> a + w.committed) 0 workers
  in
  let expect name =
    let u = Hashtbl.create 256 in
    List.iter
      (fun w ->
        Option.iter
          (Hashtbl.iter (fun k v -> Hashtbl.replace u k v))
          (Hashtbl.find_opt w.tables name))
      workers;
    u
  in
  let bag name =
    List.concat_map
      (fun w -> Option.value (Hashtbl.find_opt w.bags name) ~default:[])
      workers
  in
  let state = inst.final { check; committed; expect; bag } in
  (* Leak probes: no semantic lock survives its transaction, no commit
     region is held once all domains are quiescent. *)
  List.iter
    (fun (what, outstanding) ->
      check (Printf.sprintf "no leaked %s locks" what) (outstanding () = 0))
    inst.leaks;
  check "no held commit regions" (Stm.regions_held () = 0);
  check "workers committed transactions" (committed > 0);
  if Option.is_some inst.reader then
    check "reader completed at least one snapshot" (snapshots > 0);
  (* With [kills = 0] a fault plan degrades to a fault-free baseline run;
     there is no "after". *)
  if Option.is_some inst.fault then begin
    check "fault plan executed every kill" (kills = cfg.kills);
    check "commits after the last fault"
      (cfg.kills = 0 || Atomic.get committed_after_fault > 0)
  end;
  let injections =
    ( Atomic.get injected_conflicts,
      Atomic.get injected_remote_aborts,
      Atomic.get injected_handler_faults,
      Atomic.get injected_delays )
  in
  let fingerprint =
    let c, r, h, d = injections in
    Digest.to_hex
      (Digest.string (state ^ Printf.sprintf "inj=%d,%d,%d,%d" c r h d))
  in
  if !errors <> [] then add (repro sc cfg);
  {
    config = cfg;
    ok = !errors = [];
    errors = List.rev !errors;
    committed;
    injections;
    fingerprint;
    snapshots;
    denials;
    place_down = Atomic.get place_down;
    kills;
    committed_after_fault = Atomic.get committed_after_fault;
    max_lag = (match inst.fault with Some f -> f.max_lag () | None -> 0);
  }

let pp_report ppf r =
  let c, ra, hf, d = r.injections in
  Format.fprintf ppf
    "ok=%b committed=%d injected(conflict=%d remote=%d handler=%d delay=%d) \
     snapshots=%d denials=%d kills=%d after_fault=%d place_down=%d max_lag=%d \
     fp=%s"
    r.ok r.committed c ra hf d r.snapshots r.denials r.kills
    r.committed_after_fault r.place_down r.max_lag r.fingerprint;
  List.iter (fun e -> Format.fprintf ppf "@.  FAILED: %s" e) r.errors

(* ---------------- the scenarios ---------------- *)

(* Interval splitters at the per-worker partition boundaries: multi-domain
   soaks exercise interval-partitioned commit plans (cross-partition probes
   and endpoint reads still cross intervals); a single domain gets B = 1,
   the historical unsharded behaviour. *)
let partition_splitters cfg =
  List.init (max 0 (cfg.domains - 1)) (fun i -> (i + 1) * cfg.key_space)

(* Mixed: a TransactionalMap, a TransactionalSortedMap and a
   TransactionalQueue, plus one shared tvar counter bumped by every
   transaction.  Map and sorted-map keys are per-worker partitions; queue
   tokens are globally unique, so conservation is a multiset equation. *)
let mixed =
  let make cfg =
    let map = Map.create () in
    let sorted = Sorted.create ~splitters:(partition_splitters cfg) () in
    let queue = Queue.create () in
    let counter = Tvar.make 0 in
    let bump () = Tvar.modify counter succ in
    let step w =
      let rng = w.rng and base = w.index * cfg.key_space and seq = ref 0 in
      fun i ->
        let dice = rand_int rng 100 in
        if dice < 30 then begin
          (* Point ops on the hash map, own partition; a cross-partition
             read creates inter-worker key-lock traffic. *)
          let k = base + rand_int rng cfg.key_space in
          let probe = rand_int rng (cfg.domains * cfg.key_space) in
          if rand_int rng 3 < 2 then
            txn
              (fun () ->
                ignore (Map.put map k i);
                ignore (Map.find map probe);
                bump ())
              (fun () -> bind w "map" k i)
          else
            txn
              (fun () ->
                ignore (Map.remove map k);
                bump ())
              (fun () -> unbind w "map" k)
        end
        else if dice < 55 then begin
          (* Sorted map: point writes plus occasional endpoint reads. *)
          let k = base + rand_int rng cfg.key_space in
          if rand_int rng 3 < 2 then
            txn
              (fun () ->
                ignore (Sorted.put sorted k i);
                if rand_int rng 4 = 0 then ignore (Sorted.first_key sorted);
                bump ())
              (fun () -> bind w "sorted" k i)
          else
            txn
              (fun () ->
                ignore (Sorted.remove sorted k);
                if rand_int rng 4 = 0 then ignore (Sorted.last_key sorted);
                bump ())
              (fun () -> unbind w "sorted" k)
        end
        else if dice < 80 then begin
          if rand_int rng 2 = 0 then begin
            let token = (w.index * 1_000_000) + !seq in
            incr seq;
            txn
              (fun () ->
                Queue.put queue token;
                bump ())
              (fun () -> push w "enq" token)
          end
          else begin
            (* The dequeued token is captured in a cell set during the
               body: when the commit is reported via [Handler_failure
               { committed = true }] the return value is lost, but the
               cell holds the committed (last) attempt's token. *)
            let got = ref None in
            txn
              (fun () ->
                got := Queue.poll queue;
                bump ())
              (fun () -> Option.iter (push w "deq") !got)
          end
        end
        else if dice < 90 then begin
          (* Cross-collection transaction: two regions at commit. *)
          let k = base + rand_int rng cfg.key_space in
          txn
            (fun () ->
              ignore (Map.put map k (-i));
              ignore (Sorted.put sorted k (-i));
              bump ())
            (fun () ->
              bind w "map" k (-i);
              bind w "sorted" k (-i))
        end
        else
          (* Abstract-state reads: size/isEmpty/endpoint/empty locks make
             this worker a remote-abort victim. *)
          unmodelled (fun () ->
              (match rand_int rng 4 with
              | 0 -> ignore (Map.size map)
              | 1 -> ignore (Map.is_empty map)
              | 2 -> ignore (Sorted.first_key sorted)
              | _ -> ignore (Queue.peek queue));
              bump ())
    in
    let final f =
      let actual_map = List.sort compare (Map.to_list map) in
      let actual_sorted = Sorted.to_list sorted in
      agrees f "map" actual_map;
      agrees f "sorted" actual_sorted;
      ascending f "sorted" actual_sorted;
      (* Queue conservation: every token enqueued-and-committed is either
         in a committed dequeue or still in the queue, exactly once. *)
      let remaining = drain (fun () -> Queue.poll queue) in
      let enq = f.bag "enq" and out = f.bag "deq" @ remaining in
      let module IS = Set.Make (Int) in
      let enq_set = IS.of_list enq in
      f.check "queue token conservation (count)"
        (List.length enq = List.length out);
      f.check "queue tokens unique" (IS.cardinal enq_set = List.length enq);
      f.check "queue no duplicated delivery"
        (IS.cardinal (IS.of_list out) = List.length out);
      f.check "queue no invented tokens"
        (List.for_all (fun t -> IS.mem t enq_set) out);
      f.check "counter equals committed transactions"
        (Tvar.get counter = f.committed);
      fp_bindings "m" actual_map
      ^ fp_bindings "s" actual_sorted
      ^ fp_keys "q" remaining
      ^ Printf.sprintf "counter=%d;" (Tvar.get counter)
    in
    {
      step;
      final;
      leaks =
        [
          ("map", fun () -> Map.outstanding_locks map);
          ("sorted-map", fun () -> Sorted.outstanding_locks sorted);
          ("queue", fun () -> Queue.outstanding_locks queue);
        ];
      reader = None;
      fault = None;
    }
  in
  { name = "mixed"; target = "chaos"; salt = 0x5afe; make }

(* Striped: the same-collection scaling shape.  Every worker hammers its
   own key partition of ONE shared map of [config.stripes] key stripes,
   with cross-partition reads (inter-stripe key-lock traffic) and
   abstract-state reads (structure-stripe traffic): commits into different
   stripes of the same collection take different commit-region subsets
   and must still compose soundly with each other and with size/isEmpty
   readers serialised on the structure stripe. *)
let striped =
  let make cfg =
    let map = Map.create ~stripes:cfg.stripes () in
    let counter = Tvar.make 0 in
    let bump () = Tvar.modify counter succ in
    let step w =
      let rng = w.rng and base = w.index * cfg.key_space in
      fun i ->
        let k = base + rand_int rng cfg.key_space in
        let dice = rand_int rng 100 in
        if dice < 45 then
          txn
            (fun () ->
              ignore (Map.put map k i);
              bump ())
            (fun () -> bind w "striped map" k i)
        else if dice < 60 then
          txn
            (fun () ->
              ignore (Map.remove map k);
              bump ())
            (fun () -> unbind w "striped map" k)
        else if dice < 75 then begin
          (* Multi-key transaction: keys in different stripes, so the
             commit plan is a multi-region subset in rid order. *)
          let k2 = base + rand_int rng cfg.key_space in
          txn
            (fun () ->
              ignore (Map.put map k (-i));
              ignore (Map.put map k2 i);
              bump ())
            (fun () ->
              bind w "striped map" k (-i);
              bind w "striped map" k2 i)
        end
        else if dice < 90 then
          unmodelled (fun () ->
              let probe = rand_int rng (cfg.domains * cfg.key_space) in
              ignore (Map.find map probe);
              bump ())
        else
          unmodelled (fun () ->
              if rand_int rng 2 = 0 then ignore (Map.size map)
              else ignore (Map.is_empty map);
              bump ())
    in
    let final f =
      let actual = List.sort compare (Map.to_list map) in
      agrees f "striped map" actual;
      f.check "counter equals committed transactions"
        (Tvar.get counter = f.committed);
      fp_bindings "m" actual ^ Printf.sprintf "counter=%d;" (Tvar.get counter)
    in
    {
      step;
      final;
      leaks = [ ("striped-map", fun () -> Map.outstanding_locks map) ];
      reader = None;
      fault = None;
    }
  in
  { name = "striped"; target = "chaos"; salt = 0x57f1; make }

(* Derived: the {!Txcoll.Derive}-generated Set, Bag, PriorityQueue and
   Counter.  Set and bag keys are per-worker partitions; priority-queue
   tokens are globally unique, so the drain is a multiset equation; the
   counter is order-insensitive, so the sum of committed deltas is exact. *)
let derived =
  let make cfg =
    let set = Dset.create () in
    let bag = Dbag.create () in
    let pq = Dpq.create () in
    let counter = Dcounter.create () in
    let step w =
      let rng = w.rng and base = w.index * cfg.key_space and seq = ref 0 in
      let multiplicity = table w "derived bag" in
      fun _ ->
        let k = base + rand_int rng cfg.key_space in
        let dice = rand_int rng 100 in
        if dice < 20 then
          txn
            (fun () -> ignore (Dset.add set k))
            (fun () -> bind w "derived set" k 1)
        else if dice < 32 then
          txn
            (fun () -> ignore (Dset.remove set k))
            (fun () -> unbind w "derived set" k)
        else if dice < 47 then
          txn
            (fun () -> Dbag.add bag k)
            (fun () ->
              Hashtbl.replace multiplicity k
                (Option.value (Hashtbl.find_opt multiplicity k) ~default:0 + 1))
        else if dice < 57 then begin
          (* [remove_one]'s outcome is decided inside the transaction (the
             count read holds the key lock), so capture the committed
             attempt's answer through a ref the retry loop overwrites. *)
          let removed = ref false in
          txn
            (fun () -> removed := Dbag.remove_one bag k)
            (fun () ->
              if !removed then
                match Hashtbl.find_opt multiplicity k with
                | Some 1 | None -> Hashtbl.remove multiplicity k
                | Some m -> Hashtbl.replace multiplicity k (m - 1))
        end
        else if dice < 65 then begin
          incr seq;
          let token = (w.index * 1_000_000) + !seq in
          txn (fun () -> Dpq.insert pq token) (fun () -> push w "pq" token)
        end
        else if dice < 80 then
          (* Cross-partition reads: key-lock traffic into foreign stripes
             of both keyed tables. *)
          unmodelled (fun () ->
              let probe = rand_int rng (cfg.domains * cfg.key_space) in
              ignore (Dset.mem set probe);
              ignore (Dbag.count bag probe))
        else if dice < 90 then begin
          let d = 1 + rand_int rng 3 in
          txn (fun () -> Dcounter.add counter d) (fun () -> push w "counter" d)
        end
        else
          (* Abstract-state reads: serialise on the structure regions. *)
          unmodelled (fun () ->
              if rand_int rng 2 = 0 then ignore (Dset.size set)
              else begin
                ignore (Dset.is_empty set);
                ignore (Dbag.size bag)
              end)
    in
    let final f =
      let actual_set = List.sort compare (Dset.to_list set) in
      let actual_bag = List.sort compare (Dbag.to_list bag) in
      agrees f "derived set" (List.map (fun k -> (k, 1)) actual_set);
      agrees f "derived bag" actual_bag;
      let count = Dcounter.get counter in
      f.check "derived counter equals committed deltas"
        (count = List.fold_left ( + ) 0 (f.bag "counter"));
      (* Draining yields every committed token in ascending order. *)
      let drained = drain (fun () -> Dpq.poll_min pq) in
      f.check "derived pq drains every committed insert in order"
        (drained = List.sort compare (f.bag "pq"));
      f.check "derived pq empty after drain" (Dpq.is_empty pq);
      fp_keys "s" actual_set
      ^ fp_bindings "b" actual_bag
      ^ fp_keys "q" drained
      ^ Printf.sprintf "counter=%d;" count
    in
    {
      step;
      final;
      leaks =
        [
          ("derived-set", fun () -> Dset.outstanding_locks set);
          ("derived-bag", fun () -> Dbag.outstanding_locks bag);
          ("derived-pq", fun () -> Dpq.outstanding_locks pq);
          ("derived-counter", fun () -> Dcounter.outstanding_locks counter);
        ];
      reader = None;
      fault = None;
    }
  in
  { name = "derived"; target = "chaos"; salt = 0xde51; make }

(* Snapshot: prefix consistency of the multi-version snapshot mode.
   Workers only ever commit mirror transactions — the same binding written
   to the hash map AND the sorted map in one atomic block (or removed from
   both), plus a tvar pair kept equal — while the reader domain checks in
   every snapshot section that the mirrors are never torn, folds count
   [size] bindings, sorted iteration ascends, and the tvar pair is equal
   and pinned.  Chaos events fire only inside [Stm.atomic] attempts, so
   injection stresses the writers (including their commit-time version
   publication) while the reader stays abort-free by construction. *)
let snapshot =
  let make cfg =
    let map = Map.create ~stripes:8 () in
    let sorted = Sorted.create ~splitters:(partition_splitters cfg) () in
    let pair_a = Tvar.make 0 and pair_b = Tvar.make 0 in
    let step w =
      let rng = w.rng and base = w.index * cfg.key_space in
      fun i ->
        let k = base + rand_int rng cfg.key_space in
        let dice = rand_int rng 100 in
        if dice < 60 then
          unmodelled (fun () ->
              ignore (Map.put map k i);
              ignore (Sorted.put sorted k i))
        else if dice < 85 then
          unmodelled (fun () ->
              ignore (Map.remove map k);
              ignore (Sorted.remove sorted k))
        else
          unmodelled (fun () ->
              let v = Tvar.get pair_a + 1 in
              Tvar.set pair_a v;
              Tvar.set pair_b v)
    in
    let reader fail =
      let a = Tvar.get pair_a and b = Tvar.get pair_b in
      if a <> b then fail (Printf.sprintf "torn tvar pair: a=%d b=%d" a b);
      if Tvar.get pair_a <> a then fail "snapshot tvar read not pinned";
      snapshot_cut fail
        ~keys:(cfg.domains * cfg.key_space)
        ~mirror:(Map.find map, Sorted.find sorted)
        ~sizes:
          [
            ("map", Map.fold (fun _ _ n -> n + 1) map 0, Map.size map);
            ( "sorted",
              Sorted.fold (fun _ _ n -> n + 1) sorted 0,
              Sorted.size sorted );
          ]
        ~sorted_iter:(fun f -> Sorted.iter (fun k _ -> f k) sorted)
    in
    let final f =
      let final_map = List.sort compare (Map.to_list map) in
      f.check "final map and sorted-map contents agree"
        (final_map = Sorted.to_list sorted);
      f.check "final tvar pair agrees" (Tvar.get pair_a = Tvar.get pair_b);
      fp_bindings "m" final_map
    in
    {
      step;
      final;
      leaks =
        [
          ("map", fun () -> Map.outstanding_locks map);
          ("sorted-map", fun () -> Sorted.outstanding_locks sorted);
        ];
      reader = Some reader;
      fault = None;
    }
  in
  { name = "snapshot"; target = "chaos"; salt = 0x5a9; make }

(* Failover: zero lost writes through kill/recover of the resilient places
   store.  Workers run mirror transactions — the same key and value written
   to the place-sharded hash map AND sorted map in one atomic block,
   including cross-place pairs — while the fault plan kills a random
   master place at evenly spaced progress thresholds and recovers it from
   its slave replica, and the reader pins timestamps across the
   failovers.  A transaction touching a down place, or a pin older than a
   promotion, observes [Stm.Place_down]: no effect, no model change.  Any
   committed write lost in a kill/recover cycle breaks the final
   union-of-models check; replicas must agree with the masters and the
   lag must stay within the mode's bound. *)
let failover =
  let make cfg =
    let store =
      Places.create ~place_count ~key_space:cfg.key_space ~mode:cfg.mode ()
    in
    let step w =
      let rng = w.rng and model = table w "map" in
      (* Worker [index] owns the keys congruent to [index] modulo the
         worker count: disjoint ownership keeps the union of models
         linearizable, and every worker's keys span every place, so
         traffic keeps flowing into live places while one is down. *)
      let own () =
        (rand_int rng (cfg.key_space / cfg.domains) * cfg.domains) + w.index
      in
      fun i ->
        let k = own () in
        let dice = rand_int rng 100 in
        if dice < 45 then
          txn
            (fun () ->
              ignore (Places.put store k i);
              ignore (Places.sorted_put store k i))
            (fun () -> Hashtbl.replace model k i)
        else if dice < 65 then
          txn
            (fun () ->
              ignore (Places.remove store k);
              ignore (Places.sorted_remove store k))
            (fun () -> Hashtbl.remove model k)
        else if dice < 85 then begin
          (* Cross-place pair: all four mirrors move in one commit, whose
             region plan spans both places — a kill landing between them
             must veto the whole transaction, never half of it. *)
          let k2 = own () in
          txn
            (fun () ->
              ignore (Places.put store k (-i));
              ignore (Places.sorted_put store k (-i));
              ignore (Places.put store k2 i);
              ignore (Places.sorted_put store k2 i))
            (fun () ->
              Hashtbl.replace model k (-i);
              Hashtbl.replace model k2 i)
        end
        else begin
          (* Committed read of an own key: must agree with the model and
             with its sorted mirror (captured in a cell so the check runs
             only on the committed attempt). *)
          let got = ref (None, None) in
          txn
            (fun () -> got := (Places.find store k, Places.sorted_find store k))
            (fun () ->
              let a, b = !got in
              if a <> b then fail w (Printf.sprintf "mirror torn at key %d" k);
              if a <> Hashtbl.find_opt model k then
                fail w (Printf.sprintf "read of own key %d disagrees" k))
        end
    in
    (* One pinned timestamp across both collections and all places: the
       cut must hold even while a place is down (its frozen master still
       serves the pin) or freshly promoted. *)
    let reader fail =
      snapshot_cut fail ~keys:cfg.key_space
        ~mirror:(Places.find store, Places.sorted_find store)
        ~sizes:
          [
            ( "map",
              Places.fold (fun _ _ n -> n + 1) store 0,
              Places.size store );
          ]
        ~sorted_iter:(fun f ->
          List.iter (fun (k, _) -> f k) (Places.sorted_to_list store))
    in
    (* Kill a seeded-random place at evenly spaced progress thresholds,
       hold it down while traffic runs, then recover it from its slave.
       The last threshold is below the total op count, so every kill lands
       mid-traffic. *)
    let inject progress =
      let total = cfg.domains * cfg.ops_per_domain in
      let rng = stream_of_seed (cfg.seed lxor 0xdeadf) 0 in
      let kills = ref 0 in
      for c = 1 to cfg.kills do
        while progress () < c * total / (cfg.kills + 1) do
          Unix.sleepf 0.0005
        done;
        let p = rand_int rng place_count in
        Places.kill store p;
        incr kills;
        Unix.sleepf 0.002;
        Places.recover store p
      done;
      !kills
    in
    let final f =
      f.check "all places recovered"
        (List.for_all (Places.is_up store) (List.init place_count Fun.id));
      (* Zero lost committed writes: through every kill/recover cycle,
         both collections hold exactly the union of the models. *)
      let actual = List.sort compare (Places.to_list store) in
      let actual_sorted = Places.sorted_to_list store in
      agrees f "map" actual;
      agrees f ~model:"map" "sorted" actual_sorted;
      ascending f "sorted" actual_sorted;
      f.check "replicas agree with masters" (Places.replica_agrees store);
      f.check "replication lag drained" (Places.replication_lag store = 0);
      let bound = Option.value (Places.lag_bound store) ~default:0 in
      let max_lag = Places.max_lag_observed store in
      f.check
        (Printf.sprintf "replication lag bounded (observed %d, bound %d)"
           max_lag bound)
        (max_lag <= bound);
      Places.close store;
      fp_bindings "m" actual
    in
    {
      step;
      final;
      leaks = [ ("place", fun () -> Places.outstanding_locks store) ];
      reader = Some reader;
      fault =
        Some { inject; max_lag = (fun () -> Places.max_lag_observed store) };
    }
  in
  { name = "failover"; target = "failover"; salt = 0xfa11; make }
