(* Striping must change contention, never semantics: the traced lock rows
   of Tables 2 and 5 are identical for every stripe count, single-threaded
   behaviour is identical across K, range locks stay bounded under
   incremental cursors (the coalescing regression), and the multi-domain
   chaos soak converges when every worker targets one shared striped
   map. *)

module Stm = Tcc_stm.Stm
module LT = Harness.Locktables
module Chaos = Harness.Chaos
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)

let ks = [ 1; 4; 16 ]

(* ---------------- Tables 2/5: lock rows are K-invariant ---------------- *)

let map_ops : (string * (int LT.IM.t -> unit)) list =
  [
    ("containsKey(10) [present]", fun m -> ignore (LT.IM.mem m 10));
    ("containsKey(77) [absent]", fun m -> ignore (LT.IM.mem m 77));
    ("get(10)", fun m -> ignore (LT.IM.find m 10));
    ("size", fun m -> ignore (LT.IM.size m));
    ("isEmpty", fun m -> ignore (LT.IM.is_empty m));
    ("entrySet iteration", fun m -> ignore (LT.IM.to_list m));
    ("put(10, v)", fun m -> ignore (LT.IM.put m 10 0));
    ("put(77, v) [new key]", fun m -> ignore (LT.IM.put m 77 0));
    ("putBlind(10, v)", fun m -> LT.IM.put_blind m 10 0);
    ("remove(10)", fun m -> ignore (LT.IM.remove m 10));
    ("removeBlind(10)", fun m -> LT.IM.remove_blind m 10);
  ]

let sorted_ops : (string * (int LT.SM.t -> unit)) list =
  [
    ("firstKey", fun m -> ignore (LT.SM.first_key m));
    ("lastKey", fun m -> ignore (LT.SM.last_key m));
    ("entrySet iteration", fun m -> ignore (LT.SM.to_list m));
    ( "subMap(15,25) iteration",
      fun m ->
        ignore (LT.SM.fold_range (fun _ _ a -> a) m () ~lo:(Some 15) ~hi:(Some 25)) );
    ("get(10)", fun m -> ignore (LT.SM.find m 10));
    ("put(77, v) [new key]", fun m -> ignore (LT.SM.put m 77 0));
    ("remove(10)", fun m -> ignore (LT.SM.remove m 10));
  ]

let test_map_rows_stripe_invariant () =
  List.iter
    (fun (name, op) ->
      let baseline = LT.probe_map ~stripes:1 op in
      List.iter
        (fun k ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s locks identical at K=%d" name k)
            baseline
            (LT.probe_map ~stripes:k op))
        ks)
    map_ops

(* Splitter lists exercising B ∈ {1, 2, 4}; the last one puts cut points
   exactly on probed keys, so boundary-aligned routing is covered. *)
let splitter_lists = [ []; [ 25 ]; [ 15; 25; 35 ]; [ 10; 20; 30 ] ]

let test_sorted_rows_interval_invariant () =
  List.iter
    (fun (name, op) ->
      let baseline = LT.probe_sorted ~splitters:[] op in
      List.iter
        (fun splitters ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s locks identical at B=%d" name
               (List.length splitters + 1))
            baseline
            (LT.probe_sorted ~splitters op))
        splitter_lists)
    sorted_ops

(* B = 1 rows pinned against the pre-interval-partitioning behaviour:
   these literals were traced from the single-structure implementation and
   must never drift. *)
let test_sorted_rows_b1_baseline () =
  let expect =
    [
      ("firstKey", [ "first" ]);
      ("lastKey", [ "last" ]);
      ("entrySet iteration", [ "range"; "first"; "last" ]);
      ("subMap(15,25) iteration", [ "range" ]);
      ("get(10)", [ "key(10)" ]);
      ("put(77, v) [new key]", [ "key(77)" ]);
      ("remove(10)", [ "key(10)" ]);
    ]
  in
  List.iter
    (fun (name, op) ->
      let rows = LT.probe_sorted ~splitters:[] op in
      match List.assoc_opt name expect with
      | Some want ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s matches pre-PR rows" name)
            want rows
      | None -> Alcotest.failf "no pinned baseline for %s" name)
    sorted_ops

(* Table 8 has no striped variant (the queue is deliberately K = 1), but
   the rows must still trace as specified with the lock manager striped
   underneath the shared Semlock functor. *)
let test_queue_rows_unchanged () =
  let module Q = Txcoll.Host.Queue in
  Alcotest.(check (list string))
    "peek on empty takes the empty lock" [ "empty" ]
    (LT.probe_queue ~empty:true (fun q -> ignore (Q.peek q)));
  Alcotest.(check (list string))
    "peek on non-empty takes nothing" []
    (LT.probe_queue ~empty:false (fun q -> ignore (Q.peek q)))

(* ---------------- behavioural equivalence across K ---------------- *)

let test_single_thread_equivalence () =
  (* The same operation script against K = 1 and K = 16 must produce the
     same observable results and the same final contents. *)
  let script m =
    Stm.atomic (fun () ->
        for i = 0 to 63 do
          ignore (IM.put m i (i * i))
        done);
    let obs1 =
      Stm.atomic (fun () ->
          let a = IM.find m 17 in
          ignore (IM.remove m 17);
          let b = IM.find m 17 in
          (a, b, IM.size m))
    in
    let obs2 =
      Stm.atomic (fun () ->
          IM.fold (fun k v acc -> acc + k + v) m 0)
    in
    (obs1, obs2, List.sort compare (IM.to_list m))
  in
  let r1 = script (IM.create ~stripes:1 ()) in
  let r16 = script (IM.create ~stripes:16 ()) in
  let (a1, b1, s1), f1, l1 = r1 and (a16, b16, s16), f16, l16 = r16 in
  Alcotest.(check (option int)) "find before remove" a1 a16;
  Alcotest.(check (option int)) "find after remove" b1 b16;
  Alcotest.(check int) "size" s1 s16;
  Alcotest.(check int) "fold" f1 f16;
  Alcotest.(check bool) "contents identical" true (l1 = l16)

let test_stripe_count_clamped () =
  Alcotest.(check int) "default" 16 (IM.stripe_count (IM.create ()));
  Alcotest.(check int) "explicit" 4 (IM.stripe_count (IM.create ~stripes:4 ()));
  Alcotest.(check int) "clamped low" 1 (IM.stripe_count (IM.create ~stripes:0 ()));
  Alcotest.(check int) "clamped high" 62
    (IM.stripe_count (IM.create ~stripes:1000 ()));
  Alcotest.(check int) "sorted default one interval" 1
    (SM.stripe_count (SM.create ()));
  Alcotest.(check int) "splitters cut intervals" 4
    (SM.stripe_count (SM.create ~splitters:[ 10; 20; 30 ] ()));
  Alcotest.(check int) "splitters deduplicated" 2
    (SM.stripe_count (SM.create ~splitters:[ 5; 5; 5 ] ()));
  Alcotest.(check int) "splitters clamped to 62 intervals" 62
    (SM.stripe_count (SM.create ~splitters:(List.init 100 Fun.id) ()))

(* ---------------- range-lock growth regression ---------------- *)

let test_cursor_range_locks_bounded () =
  (* An incremental cursor extends its range lock one binding at a time;
     coalescing must keep the registered count O(1), not O(keys seen). *)
  let m = SM.create ~splitters:[ 50; 100; 150 ] () in
  Stm.atomic (fun () ->
      for i = 1 to 200 do
        ignore (SM.put m i i)
      done);
  let seen = ref 0 in
  let worst = ref 0 in
  (try
     Stm.atomic (fun () ->
         let c = SM.cursor m in
         let rec go () =
           match SM.cursor_next c with
           | Some _ ->
               incr seen;
               worst := max !worst (SM.outstanding_range_locks m);
               go ()
           | None -> ()
         in
         go ();
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "cursor visited every binding" 200 !seen;
  (* The coalesced lock registers once per overlapped interval, so the
     bound is O(B), never O(keys seen): one entry per stripe the sweep
     has crossed so far. *)
  Alcotest.(check bool)
    (Printf.sprintf "range locks stay bounded (worst %d)" !worst)
    true (!worst <= SM.stripe_count m);
  Alcotest.(check int) "released on abort" 0 (SM.outstanding_range_locks m)

let test_repeated_folds_coalesce () =
  let m = SM.create () in
  Stm.atomic (fun () ->
      for i = 1 to 100 do
        ignore (SM.put m i i)
      done);
  (try
     Stm.atomic (fun () ->
         (* Overlapping and adjacent spans from one transaction: one entry. *)
         for lo = 0 to 9 do
           ignore
             (SM.fold_range
                (fun _ _ a -> a)
                m ()
                ~lo:(Some (lo * 10))
                ~hi:(Some ((lo * 10) + 15)))
         done;
         Alcotest.(check int) "ten overlapping folds, one range entry" 1
           (SM.outstanding_range_locks m);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  Alcotest.(check int) "released" 0 (SM.outstanding_range_locks m)

(* ---------------- interval-partitioned commit plans ---------------- *)

let test_commit_plan_interval_scoped () =
  (* B = 8; a writer whose buffered keys and ranges fall in one interval
     must plan strictly fewer regions than all_regions. *)
  let m = SM.create ~splitters:[ 100; 200; 300; 400; 500; 600; 700 ] () in
  Alcotest.(check int) "eight intervals" 8 (SM.stripe_count m);
  for i = 0 to 799 do
    ignore (SM.put m i i)
  done;
  let all = SM.all_region_count m in
  Alcotest.(check int) "full plan covers structure + intervals" 9 all;
  (try
     Stm.atomic (fun () ->
         (* Presence-preserving overwrite of one key: one interval, no
            structure region. *)
         ignore (SM.put m 150 0);
         Alcotest.(check int) "overwrite plans its interval only" 1
           (SM.commit_plan_size m);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  (try
     Stm.atomic (fun () ->
         (* New key: its interval plus the structure region (size and
            possibly endpoints move). *)
         ignore (SM.put m 850 0);
         Alcotest.(check int) "insert adds the structure region" 2
           (SM.commit_plan_size m);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  (try
     Stm.atomic (fun () ->
         (* A bounded scan inside one interval: that interval only. *)
         ignore (SM.fold_range (fun _ _ a -> a) m () ~lo:(Some 110) ~hi:(Some 150));
         ignore (SM.put m 150 0);
         Alcotest.(check bool) "scan+overwrite still under full plan" true
           (SM.commit_plan_size m < all);
         Stm.self_abort ())
   with Stm.Aborted -> ());
  (try
     Stm.atomic (fun () ->
         (* Removals rescan the endpoints: full plan. *)
         ignore (SM.remove m 150);
         Alcotest.(check int) "removal plans every region" all
           (SM.commit_plan_size m);
         Stm.self_abort ())
   with Stm.Aborted -> ())

(* Satellite probe: optimistic point writes must not enter the structure
   region at operation time, and disjoint-interval writers' commit plans
   must not overlap — so two domains hammering different intervals cause
   exactly zero blocked region acquisitions. *)
let test_optimistic_writes_no_region_waits () =
  let keys_per_domain = 256 in
  let m =
    SM.create
      ~splitters:(List.init 7 (fun i -> (i + 1) * keys_per_domain))
      ()
  in
  for d = 0 to 1 do
    for i = 0 to keys_per_domain - 1 do
      ignore (SM.put m ((d * keys_per_domain) + i) 0)
    done
  done;
  let waits_before = Stm.commit_region_waits () in
  let worker d () =
    let base = d * keys_per_domain in
    for i = 0 to 499 do
      Stm.atomic (fun () -> ignore (SM.put m (base + (i mod keys_per_domain)) i))
    done
  in
  let doms = List.init 2 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join doms;
  Alcotest.(check int) "no blocked region acquisitions" 0
    (Stm.commit_region_waits () - waits_before)

(* The same ordered-operation script against B = 1 and a partitioned map
   must produce identical observations: merged iteration, endpoints and
   size are linearizable across interval boundaries. *)
let test_sorted_single_thread_equivalence () =
  let script m =
    Stm.atomic (fun () ->
        for i = 0 to 99 do
          ignore (SM.put m i (i * 3))
        done);
    let obs1 =
      Stm.atomic (fun () ->
          ignore (SM.remove m 0);
          ignore (SM.remove m 99);
          ignore (SM.put m 250 7);
          (* Buffered writes merged with committed state across boundaries. *)
          let ordered = SM.fold_range (fun k _ acc -> k :: acc) m [] ~lo:(Some 20) ~hi:(Some 60) in
          (SM.first_key m, SM.last_key m, SM.size m, List.rev ordered))
    in
    let cursor_keys =
      Stm.atomic (fun () ->
          let c = SM.cursor ~lo:15 m in
          let rec go acc =
            match SM.cursor_next c with
            | Some (k, _) -> go (k :: acc)
            | None -> List.rev acc
          in
          go [])
    in
    (obs1, cursor_keys, SM.to_list m)
  in
  let r1 = script (SM.create ()) in
  let r4 = script (SM.create ~splitters:[ 25; 50; 75 ] ()) in
  Alcotest.(check bool) "observations identical across B" true (r1 = r4)

(* ---------------- multi-domain striped soak ---------------- *)

let test_striped_soak_matrix () =
  List.iter
    (fun seed ->
      List.iter
        (fun stripes ->
          let r =
            Chaos.run Chaos.striped
              (Chaos.config ~stripes ~domains:2 ~ops_per_domain:600 ~seed 0.05)
          in
          if not r.ok then
            Alcotest.failf "striped soak seed=%d K=%d: %s" seed stripes
              (String.concat "; " r.errors);
          Alcotest.(check bool)
            (Printf.sprintf "work committed (seed=%d K=%d)" seed stripes)
            true (r.committed > 0))
        [ 1; 4; 16 ])
    [ 11; 12 ]

let test_striped_soak_deterministic () =
  let soak () =
    Chaos.run Chaos.striped
      (Chaos.config ~stripes:8 ~domains:1 ~ops_per_domain:800 ~seed:5 0.1)
  in
  let a = soak () and b = soak () in
  Alcotest.(check bool) "run A converged" true a.ok;
  Alcotest.(check bool) "run B converged" true b.ok;
  Alcotest.(check string) "same seed, same fingerprint" a.fingerprint
    b.fingerprint

let suites =
  [
    ( "striping",
      [
        Alcotest.test_case "map lock rows K-invariant" `Quick
          test_map_rows_stripe_invariant;
        Alcotest.test_case "sorted lock rows interval-invariant" `Quick
          test_sorted_rows_interval_invariant;
        Alcotest.test_case "sorted B=1 rows match pre-PR baseline" `Quick
          test_sorted_rows_b1_baseline;
        Alcotest.test_case "commit plans interval-scoped" `Quick
          test_commit_plan_interval_scoped;
        Alcotest.test_case "optimistic writes cause no region waits" `Quick
          test_optimistic_writes_no_region_waits;
        Alcotest.test_case "sorted single-thread equivalence across B" `Quick
          test_sorted_single_thread_equivalence;
        Alcotest.test_case "queue rows unchanged" `Quick test_queue_rows_unchanged;
        Alcotest.test_case "single-thread equivalence" `Quick
          test_single_thread_equivalence;
        Alcotest.test_case "stripe count clamped" `Quick test_stripe_count_clamped;
        Alcotest.test_case "cursor range locks bounded" `Quick
          test_cursor_range_locks_bounded;
        Alcotest.test_case "repeated folds coalesce" `Quick
          test_repeated_folds_coalesce;
        Alcotest.test_case "striped soak (2 seeds x 3 K)" `Slow
          test_striped_soak_matrix;
        Alcotest.test_case "striped soak deterministic" `Quick
          test_striped_soak_deterministic;
      ] );
  ]
