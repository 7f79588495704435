(* The benchmark's own tests: every workload runs at a tiny size with its
   audit passing, and every verifier rejects a deliberately corrupted
   state. *)

open Perfbench
module Stm = Tcc_stm.Stm

let domains = 2
let per_domain = 400

let run_tiny wl =
  let bufs = Driver.buffers ~domains ~per_domain ~traced:true in
  List.iter
    (fun traced ->
      let e = Driver.run_episode wl ~bufs ~traced in
      Alcotest.(check (list string)) "no request failed" [] e.errors;
      Alcotest.(check int) "failed" 0 e.failed;
      List.iter (fun (name, ok) -> Alcotest.(check bool) name true ok) e.checks;
      Alcotest.(check int) "requests" (domains * per_domain) e.requests)
    [ false; true ]

let rejected checks name =
  match List.assoc_opt name checks with
  | Some ok -> Alcotest.(check bool) (name ^ " rejects") false ok
  | None -> Alcotest.failf "no check named %s" name

let all_pass checks =
  List.iter (fun (name, ok) -> Alcotest.(check bool) name true ok) checks

let raises_check_failed f =
  match f () with
  | _ -> Alcotest.fail "request accepted a corrupted state"
  | exception Workload.Check_failed _ -> ()

let ctx () = Workload.ctx 0 (Trace.off ())

(* Runs [f] while another domain is parked inside a transaction after
   [hold] has run in it, then lets that transaction commit.  With
   [~serialised:true] the transaction holds the fallback commit region
   for the whole time. *)
let while_parked ?(serialised = false) hold f =
  let parked = Atomic.make false and release = Atomic.make false in
  let body () =
    hold ();
    Atomic.set parked true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  let d =
    Domain.spawn (fun () ->
        if serialised then Stm.serialised body else Stm.atomic body)
  in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join d)
    f

(* ---- map_zipf ---- *)

let zipf_inputs () =
  Map_zipf.generate ~keys:1024 ~seed:7 ~domains ~per_domain ()

let test_map_zipf_runs () = run_tiny (Map_zipf.workload (zipf_inputs ()))

let test_map_zipf_rejects () =
  let st = Map_zipf.setup (zipf_inputs ()) in
  all_pass (Map_zipf.check st);
  let v = Option.get (Map_zipf.M.find st.m 3) in
  ignore (Map_zipf.M.put st.m 3 (v + 1));
  rejected (Map_zipf.check st) "map_zipf.sum_conserved";
  ignore (Map_zipf.M.put st.m 3 v);
  ignore (Map_zipf.M.put st.m 5000 0);
  rejected (Map_zipf.check st) "map_zipf.size_matches_ledger";
  ignore (Map_zipf.M.remove st.m 5000);
  all_pass (Map_zipf.check st);
  while_parked
    (fun () -> ignore (Map_zipf.M.find st.m 3))
    (fun () -> rejected (Map_zipf.check st) "map_zipf.outstanding_locks_zero");
  all_pass (Map_zipf.check st)

let test_map_zipf_request_rejects () =
  let inp = zipf_inputs () in
  let st = Map_zipf.setup inp in
  let i =
    let rec first i = if inp.op.(0).{i} = Map_zipf.k_read then i else first (i + 1) in
    first 0
  in
  ignore (Map_zipf.M.remove st.m inp.a.(0).{i});
  raises_check_failed (fun () -> Map_zipf.request st (ctx ()) i)

let test_map_zipf_audit_rejects () =
  let st = Map_zipf.setup (zipf_inputs ()) in
  Map_zipf.audit st ();
  ignore (Map_zipf.M.put st.m 3 0);
  raises_check_failed (Map_zipf.audit st)

(* ---- jbb ---- *)

let jbb_inputs () = Jbb_mix.generate ~seed:7 ~domains ~per_domain ()

let test_jbb_runs () = run_tiny (Jbb_mix.workload (jbb_inputs ()))

let test_jbb_rejects () =
  let st = Jbb_mix.setup (jbb_inputs ()) in
  all_pass (Jbb_mix.check st);
  let key = Jbb_mix.J.key ~warehouse:1 7 in
  while_parked
    (fun () -> ignore (Jbb_mix.J.OrderMap.find st.j.order key))
    (fun () -> rejected (Jbb_mix.check st) "jbb.outstanding_locks_zero");
  all_pass (Jbb_mix.check st);
  ignore (Jbb_mix.J.OrderMap.remove st.j.order key);
  rejected (Jbb_mix.check st) "jbb.audit"

(* ---- places_audit ---- *)

let places_inputs () =
  Places_audit.generate ~keys:256 ~seed:7 ~domains ~per_domain ()

let test_places_runs () = run_tiny (Places_audit.workload (places_inputs ()))

let test_places_rejects () =
  let st = Places_audit.setup (places_inputs ()) in
  all_pass (Places_audit.check st);
  let v = Option.get (Places.sorted_find st.p 10) in
  ignore (Places.sorted_put st.p 10 (v - 1));
  rejected (Places_audit.check st) "places_audit.sum_conserved";
  ignore (Places.sorted_put st.p 10 v);
  all_pass (Places_audit.check st);
  while_parked
    (fun () -> ignore (Places.sorted_find st.p 10))
    (fun () ->
      rejected (Places_audit.check st) "places_audit.outstanding_locks_zero");
  all_pass (Places_audit.check st);
  (* Key 10's balance moves to key 11, so only the size is off. *)
  Stm.atomic (fun () ->
      ignore (Places.sorted_remove st.p 10);
      ignore (Places.sorted_put st.p 11 (2 * v)));
  rejected (Places_audit.check st) "places_audit.size"

let test_places_replica_rejects () =
  let st = Places_audit.setup (places_inputs ()) in
  all_pass (Places_audit.check st);
  Places.kill st.p 1;
  rejected (Places_audit.check st) "places_audit.replica_agrees"

let test_regions_rejects () =
  all_pass [ Driver.regions_check () ];
  while_parked ~serialised:true ignore (fun () ->
      rejected [ Driver.regions_check () ] "stm.regions_held_zero");
  all_pass [ Driver.regions_check () ]

let test_places_request_rejects () =
  let inp = places_inputs () in
  let st = Places_audit.setup inp in
  let i =
    let rec first i =
      if inp.op.(0).{i} = Places_audit.k_audit then i else first (i + 1)
    in
    first 0
  in
  ignore (Places.sorted_put st.p 0 0);
  raises_check_failed (fun () -> Places_audit.request st (ctx ()) i)

(* ---- measurement plumbing ---- *)

let test_percentile_exact () =
  let rng = Random.State.make [| 3 |] in
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> Random.State.int rng 1000) in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      List.iter
        (fun q ->
          let v = Samples.vec n in
          Array.iteri (fun i x -> v.{i} <- x) a;
          let rank = max 0 (int_of_float (Float.ceil (q *. float n)) - 1) in
          Alcotest.(check int)
            (Printf.sprintf "n=%d q=%g" n q)
            sorted.(rank) (Samples.percentile v n q))
        [ 0.; 0.5; 0.99; 1. ])
    [ 1; 2; 7; 100; 1001 ]

(* Self time is duration minus child coverage, and a child left open by
   an exception is closed when its parent unwinds. *)
let test_trace_self_time () =
  let b = Trace.create 8192 in
  Trace.restart b;
  Trace.begin_request b 0;
  let outer = Trace.enter b Trace.stm_atomic in
  let _aborted = Trace.enter b Trace.map_find in
  Trace.unwind b outer;
  let child = Trace.enter b Trace.map_put in
  Trace.leave b child;
  Trace.leave b outer;
  let seen = ref [] in
  Trace.iter_spans b (fun name d self -> seen := (name, d, self) :: !seen);
  Alcotest.(check int) "three spans" 3 (List.length !seen);
  let children =
    List.fold_left
      (fun acc (name, d, _) -> if name <> Trace.stm_atomic then acc + d else acc)
      0 !seen
  in
  List.iter
    (fun (name, d, self) ->
      if name = Trace.stm_atomic then
        Alcotest.(check int) "outer self" (d - children) self
      else Alcotest.(check int) "leaf self" d self)
    !seen;
  Alcotest.(check int) "stack empty" (-1) b.top

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        [
          Alcotest.test_case "map_zipf tiny run" `Quick test_map_zipf_runs;
          Alcotest.test_case "jbb tiny run" `Quick test_jbb_runs;
          Alcotest.test_case "places_audit tiny run" `Quick test_places_runs;
        ] );
      ( "verifiers",
        [
          Alcotest.test_case "map_zipf audit" `Quick test_map_zipf_rejects;
          Alcotest.test_case "map_zipf read" `Quick test_map_zipf_request_rejects;
          Alcotest.test_case "map_zipf quiescent audit" `Quick
            test_map_zipf_audit_rejects;
          Alcotest.test_case "jbb audit" `Quick test_jbb_rejects;
          Alcotest.test_case "places_audit audit" `Quick test_places_rejects;
          Alcotest.test_case "places_audit scan" `Quick
            test_places_request_rejects;
          Alcotest.test_case "places_audit replica" `Quick
            test_places_replica_rejects;
          Alcotest.test_case "commit regions held" `Quick test_regions_rejects;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "exact percentiles" `Quick test_percentile_exact;
          Alcotest.test_case "span self time" `Quick test_trace_self_time;
        ] );
    ]
