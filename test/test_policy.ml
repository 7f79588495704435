(* TM policy matrix: state equivalence across fixed policies and the
   adaptive controller, pinned-policy enforcement at the collection
   boundary, policy-aware chaos soaks and the lazy_rv_wb stats pin. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module Tm = Tcc_stm.Stm.Tm_ops
module Chaos = Harness.Chaos
module Map = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module Sorted = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Queue = Txcoll.Host.Queue

let policy_names = [ "lazy_rv_wb"; "eager_rv_wb"; "lazy_rl_wb"; "eager_rl_ul" ]

(* Every test must leave the process on the defaults it found. *)
let with_clean_policy f =
  Fun.protect
    ~finally:(fun () ->
      Stm.Policy.disable_adaptive ();
      Stm.Policy.set_global Stm.Policy.lazy_rv_wb)
    f

(* ---------------- naming ---------------- *)

let test_policy_names () =
  List.iter
    (fun n ->
      match Stm.Policy.of_name n with
      | None -> Alcotest.failf "of_name %s = None" n
      | Some p ->
          Alcotest.(check string) "name round-trips" n (Stm.Policy.name p))
    policy_names;
  Alcotest.(check int) "four policies ship" 4 (List.length Stm.Policy.all);
  Alcotest.(check bool) "unknown name rejected" true
    (Stm.Policy.of_name "speculative_hw" = None);
  Alcotest.(check string) "default global is the seed protocol" "lazy_rv_wb"
    (Stm.Policy.name (Stm.Policy.global ()))

(* ---------------- state equivalence ---------------- *)

(* One deterministic op program over Map + SortedMap + Queue, replayed
   under each policy mode.  Single domain, so any state divergence is a
   protocol bug, not a schedule artefact. *)

type op = Put of int * int | Remove of int | Push of int | Pop

let apply_program ~mode ops =
  let m = Map.create () and s = Sorted.create () and q = Queue.create () in
  let run f =
    match mode with
    | `Fixed p -> Stm.atomic ~tm_policy:p f
    | `Adaptive -> Stm.atomic f
  in
  List.iter
    (fun op ->
      run (fun () ->
          match op with
          | Put (k, v) ->
              ignore (Map.put m k v);
              ignore (Sorted.put s k v)
          | Remove k ->
              ignore (Map.remove m k);
              ignore (Sorted.remove s k)
          | Push v -> Queue.put q v
          | Pop -> ignore (Queue.poll q)))
    ops;
  let map_state =
    List.sort compare (Map.fold (fun k v acc -> (k, v) :: acc) m [])
  in
  let sorted_state = Sorted.fold (fun k v acc -> (k, v) :: acc) s [] in
  let rec drain acc = match Queue.poll q with
    | None -> List.rev acc
    | Some v -> drain (v :: acc)
  in
  (map_state, sorted_state, drain [])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Put (k land 31, v)) small_nat small_nat);
        (2, map (fun k -> Remove (k land 31)) small_nat);
        (2, map (fun v -> Push v) small_nat);
        (1, return Pop);
      ])

let prop_state_equivalence =
  QCheck.Test.make ~count:40 ~name:"all policies state-equivalent"
    (QCheck.make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      with_clean_policy @@ fun () ->
      let reference = apply_program ~mode:(`Fixed Stm.Policy.lazy_rv_wb) ops in
      List.iter
        (fun p ->
          if apply_program ~mode:(`Fixed p) ops <> reference then
            QCheck.Test.fail_reportf "policy %s diverges from lazy_rv_wb"
              (Stm.Policy.name p))
        Stm.Policy.all;
      (* Adaptive mode: tiny epoch so the controller actually runs windows
         mid-program. *)
      Stm.Policy.enable_adaptive ~epoch:16 ();
      let adaptive = apply_program ~mode:`Adaptive ops in
      Stm.Policy.disable_adaptive ();
      if adaptive <> reference then
        QCheck.Test.fail_reportf "adaptive mode diverges from lazy_rv_wb";
      true)

(* ---------------- policy-aware chaos soaks ---------------- *)

let test_chaos_soak_policies () =
  (* 2 seeds x (4 fixed policies + adaptive): every soak must pass the
     linearizability and leak checks inside [Chaos.run] regardless of the
     TM protocol underneath. *)
  with_clean_policy @@ fun () ->
  List.iter
    (fun seed ->
      List.iter
        (fun tm_policy ->
          let r =
            Chaos.run Chaos.mixed
              (Chaos.config ~tm_policy ~domains:2 ~ops_per_domain:300 ~seed
                 0.05)
          in
          if not r.ok then
            Alcotest.failf "soak seed=%d tm_policy=%s: %s" seed tm_policy
              (String.concat "; " r.errors);
          Alcotest.(check bool)
            (Printf.sprintf "work committed (seed=%d %s)" seed tm_policy)
            true (r.committed > 0))
        ("adaptive" :: policy_names))
    [ 7; 11 ];
  Alcotest.(check string) "global policy restored after soaks" "lazy_rv_wb"
    (Stm.Policy.name (Stm.Policy.global ()))

(* ---------------- lazy_rv_wb stats pin ---------------- *)

let test_lazy_stats_pinned () =
  (* Bit-for-bit guard for the seed protocol: a fixed single-domain
     transaction program must produce exactly the counters the seed
     produced.  Any drift here means the default path changed. *)
  with_clean_policy @@ fun () ->
  Stm.reset_stats ();
  let v = Tvar.make 0 and w = Tvar.make 0 in
  for i = 1 to 3 do
    Stm.atomic (fun () ->
        Tvar.set v i;
        Tvar.set w (Tvar.get v + i))
  done;
  for _ = 1 to 2 do
    ignore (Stm.atomic (fun () -> Tvar.get v + Tvar.get w))
  done;
  let s = Stm.global_stats () in
  Alcotest.(check int) "commits" 5 s.commits;
  Alcotest.(check int) "read-only fast-path commits" 2 s.read_only_commits;
  Alcotest.(check int) "clock bumps (one per mutating commit)" 3 s.clock_bumps;
  Alcotest.(check int) "conflict aborts" 0 s.conflict_aborts;
  Alcotest.(check int) "remote aborts" 0 s.remote_aborts;
  Alcotest.(check int) "handler failures" 0 s.handler_failures;
  Alcotest.(check int) "policy switches" 0 s.policy_switches;
  Alcotest.(check int) "final value" 6 (Tvar.get w)

(* ---------------- validation and pinning enforcement ---------------- *)

let full_support =
  {
    Tm_intf.ps_eager_acquire = true;
    ps_read_locking = true;
    ps_undo_logging = true;
  }

let test_validate_policy () =
  (* Unknown names are rejected outright. *)
  (match Tm.validate_policy ~support:full_support "hardware_htm" with
  | () -> Alcotest.fail "unknown policy accepted"
  | exception Invalid_argument _ -> ());
  (* Full support accepts the whole matrix. *)
  List.iter (Tm.validate_policy ~support:full_support) policy_names;
  (* A collection that cannot do encounter-time acquisition must reject
     eager policies but keep the lazy ones. *)
  let lazy_only = { full_support with Tm_intf.ps_eager_acquire = false } in
  Tm.validate_policy ~support:lazy_only "lazy_rv_wb";
  Tm.validate_policy ~support:lazy_only "lazy_rl_wb";
  (match Tm.validate_policy ~support:lazy_only "eager_rv_wb" with
  | () -> Alcotest.fail "eager policy accepted without support"
  | exception Invalid_argument _ -> ());
  let no_undo = { full_support with Tm_intf.ps_undo_logging = false } in
  (match Tm.validate_policy ~support:no_undo "eager_rl_ul" with
  | () -> Alcotest.fail "undo policy accepted without support"
  | exception Invalid_argument _ -> ())

let test_pinned_policy_enforced () =
  with_clean_policy @@ fun () ->
  (* Creation validates the name. *)
  (match Map.create ~tm_policy:"not_a_policy" () with
  | _ -> Alcotest.fail "bogus pin accepted"
  | exception Invalid_argument _ -> ());
  let m = Map.create ~tm_policy:"eager_rv_wb" () in
  Alcotest.(check (option string)) "pin recorded" (Some "eager_rv_wb")
    (Map.pinned_policy m);
  (* Mutating under the matching policy commits. *)
  Stm.atomic ~tm_policy:Stm.Policy.eager_rv_wb (fun () ->
      ignore (Map.put m 1 10));
  (* Mutating under the default policy violates the pin: the prepare
     phase raises and the exception escapes [atomic] un-retried. *)
  (match Stm.atomic (fun () -> ignore (Map.put m 2 20)) with
  | () -> Alcotest.fail "pin violation committed"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names both policies" true
        (let has needle =
           let n = String.length needle and m = String.length msg in
           let rec go i =
             i + n <= m && (String.sub msg i n = needle || go (i + 1))
           in
           go 0
         in
         has "eager_rv_wb" && has "lazy_rv_wb"));
  Alcotest.(check (option int)) "violating write rolled back" None
    (Map.find m 2);
  (* Read-only transactions skip prepare, so the pin is not checked. *)
  Alcotest.(check (option int)) "reads unchecked under any policy" (Some 10)
    (Stm.atomic (fun () -> Map.find m 1));
  (* Unpinned collections never check. *)
  let free = Map.create () in
  Alcotest.(check (option string)) "no pin by default" None
    (Map.pinned_policy free);
  Stm.atomic ~tm_policy:Stm.Policy.eager_rl_ul (fun () ->
      ignore (Map.put free 1 1))

let test_pinned_policy_other_collections () =
  with_clean_policy @@ fun () ->
  let s = Sorted.create ~tm_policy:"lazy_rl_wb" () in
  Alcotest.(check (option string)) "sorted pin" (Some "lazy_rl_wb")
    (Sorted.pinned_policy s);
  Stm.atomic ~tm_policy:Stm.Policy.lazy_rl_wb (fun () ->
      ignore (Sorted.put s 1 1));
  (match Stm.atomic (fun () -> ignore (Sorted.put s 2 2)) with
  | () -> Alcotest.fail "sorted pin violation committed"
  | exception Invalid_argument _ -> ());
  let q = Queue.create ~tm_policy:"eager_rl_ul" () in
  Stm.atomic ~tm_policy:Stm.Policy.eager_rl_ul (fun () -> Queue.put q 1);
  (match Stm.atomic (fun () -> Queue.put q 2) with
  | () -> Alcotest.fail "queue pin violation committed"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "only the matching push committed" 1
    (Queue.committed_length q)

(* ---------------- adaptive controller ---------------- *)

let test_adaptive_converges () =
  (* Write-heavy, read-poor traffic (8 writes per txn, no read-only
     commits) must drive the controller to eager_rl_ul within a few
     epochs, through the hysteresis, and count the switch. *)
  with_clean_policy @@ fun () ->
  Stm.reset_stats ();
  let tvs = Array.init 64 (fun _ -> Tvar.make 0) in
  Stm.Policy.enable_adaptive ~epoch:64 ();
  Alcotest.(check bool) "controller enabled" true (Stm.Policy.adaptive ());
  for i = 0 to 999 do
    Stm.atomic (fun () ->
        for j = 0 to 7 do
          let t = tvs.((i + (j * 9)) land 63) in
          Tvar.set t (Tvar.get t + 1)
        done)
  done;
  Alcotest.(check string) "converged to the undo-logging policy"
    "eager_rl_ul"
    (Stm.Policy.name (Stm.Policy.global ()));
  Alcotest.(check bool) "switch counted" true (Stm.Policy.switches () > 0);
  (* Read-dominated traffic swings it back. *)
  for i = 0 to 1999 do
    ignore
      (Stm.atomic (fun () ->
           if i mod 50 = 0 then Tvar.set tvs.(0) i;
           Tvar.get tvs.(i land 63)))
  done;
  Alcotest.(check string) "swung back to the read-optimised default"
    "lazy_rv_wb"
    (Stm.Policy.name (Stm.Policy.global ()));
  Stm.Policy.disable_adaptive ();
  Alcotest.(check bool) "controller disabled" false (Stm.Policy.adaptive ())

let suites =
  [
    ( "policy",
      [
        Alcotest.test_case "names round-trip" `Quick test_policy_names;
        QCheck_alcotest.to_alcotest prop_state_equivalence;
        Alcotest.test_case "chaos soak under every policy" `Slow
          test_chaos_soak_policies;
        Alcotest.test_case "lazy_rv_wb stats pinned" `Quick
          test_lazy_stats_pinned;
        Alcotest.test_case "validate_policy vs support" `Quick
          test_validate_policy;
        Alcotest.test_case "pinned policy enforced (map)" `Quick
          test_pinned_policy_enforced;
        Alcotest.test_case "pinned policy enforced (sorted, queue)" `Quick
          test_pinned_policy_other_collections;
        Alcotest.test_case "adaptive controller converges" `Quick
          test_adaptive_converges;
      ] );
  ]
