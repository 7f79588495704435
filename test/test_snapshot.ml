(* Multi-version snapshot reads: abort-free read-only sections over tvars
   and the transactional collections, plus the version-chain reclamation
   properties (a pinned reader never observes a reclaimed version; chains
   shrink back to the bound once the oldest reader epoch advances) and the
   allocation budget of the snapshot-read commit path. *)

module Stm = Tcc_stm.Stm
module Tvar = Tcc_stm.Tvar
module IM = Txcoll.Host.Map (Txcoll.Host.Int_hashed)
module SM = Txcoll.Host.Sorted_map (Txcoll.Host.Int_ordered)
module Q = Txcoll.Host.Queue

(* ---------------- basic semantics ---------------- *)

let test_snapshot_tvar_reads () =
  let a = Tvar.make 1 and b = Tvar.make 10 in
  Stm.atomic (fun () ->
      Tvar.set a 2;
      Tvar.set b 20);
  let sum = Stm.snapshot (fun () -> Tvar.get a + Tvar.get b) in
  Alcotest.(check int) "snapshot sees committed state" 22 sum

let test_snapshot_counts_as_ro_commit () =
  let tv = Tvar.make 0 in
  let s0 = Stm.global_stats () in
  for _ = 1 to 5 do
    ignore (Stm.snapshot (fun () -> Tvar.get tv))
  done;
  let s1 = Stm.global_stats () in
  Alcotest.(check int) "snapshot_reads counted" 5
    (s1.snapshot_reads - s0.snapshot_reads);
  Alcotest.(check int) "each snapshot is a read-only commit" 5
    (s1.read_only_commits - s0.read_only_commits);
  Alcotest.(check int) "no clock interaction" 0 (s1.clock_bumps - s0.clock_bumps);
  Alcotest.(check int) "no aborts" 0
    (s1.conflict_aborts + s1.remote_aborts + s1.explicit_aborts
    - (s0.conflict_aborts + s0.remote_aborts + s0.explicit_aborts))

let test_snapshot_rejects_writes_and_atomics () =
  let tv = Tvar.make 0 in
  let m = IM.create () in
  Stm.snapshot (fun () ->
      Alcotest.check_raises "Tvar.set raises"
        (Invalid_argument "Tvar.set: inside a snapshot read section")
        (fun () -> Tvar.set tv 1);
      Alcotest.check_raises "atomic raises"
        (Invalid_argument "Stm.atomic: inside a snapshot read section")
        (fun () -> Stm.atomic ignore);
      Alcotest.check_raises "map write raises"
        (Invalid_argument
           "Transactional_map: write inside a snapshot read section")
        (fun () -> ignore (IM.put m 1 1)))

let test_snapshot_nesting () =
  let tv = Tvar.make 7 in
  let v =
    Stm.snapshot (fun () ->
        Alcotest.(check bool) "in_snapshot" true (Stm.in_snapshot ());
        Stm.snapshot (fun () -> Tvar.get tv))
  in
  Alcotest.(check bool) "left" false (Stm.in_snapshot ());
  Alcotest.(check int) "nested read" 7 v

(* The pinned stamp is stable: writes committed by another domain while
   the snapshot is open stay invisible to it, and the pre-pin values keep
   resolving even after their versions become reclamation candidates. *)
let test_snapshot_isolation_across_domains () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  Stm.snapshot (fun () ->
      let a0 = Tvar.get a and b0 = Tvar.get b in
      let d =
        Domain.spawn (fun () ->
            for i = 1 to 50 do
              Stm.atomic (fun () ->
                  Tvar.set a i;
                  Tvar.set b (-i))
            done)
      in
      Domain.join d;
      Alcotest.(check int) "a unchanged" a0 (Tvar.get a);
      Alcotest.(check int) "b unchanged" b0 (Tvar.get b));
  Alcotest.(check int) "live read sees the writes" 50
    (Stm.snapshot (fun () -> Tvar.get a))

(* ---------------- collections ---------------- *)

let test_snapshot_map_ops () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      for i = 1 to 20 do
        ignore (IM.put m i (i * 10))
      done);
  Stm.snapshot (fun () ->
      Alcotest.(check int) "size" 20 (IM.size m);
      Alcotest.(check bool) "not empty" false (IM.is_empty m);
      Alcotest.(check (option int)) "find" (Some 70) (IM.find m 7);
      Alcotest.(check (option int)) "miss" None (IM.find m 21);
      let sum = IM.fold (fun _ v acc -> acc + v) m 0 in
      Alcotest.(check int) "fold" 2100 sum;
      let c = IM.cursor m in
      let n = ref 0 in
      let rec drain () =
        match IM.next c with
        | Some _ ->
            incr n;
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check int) "cursor count" 20 !n);
  Alcotest.(check int) "no stranded locks" 0 (IM.outstanding_locks m)

let test_snapshot_sorted_map_cross_interval () =
  let m = SM.create ~splitters:[ 100; 200; 300 ] () in
  Stm.atomic (fun () ->
      for i = 1 to 40 do
        ignore (SM.put m (i * 10) i)
      done);
  Stm.snapshot (fun () ->
      Alcotest.(check int) "size" 40 (SM.size m);
      Alcotest.(check (option int)) "first key" (Some 10)
        (SM.first_key m);
      Alcotest.(check (option int)) "last key" (Some 400) (SM.last_key m);
      (* Cross-interval range fold: [50, 350) spans all four intervals. *)
      let keys =
        List.rev
          (SM.fold_range
             (fun k _ acc -> k :: acc)
             m [] ~lo:(Some 50) ~hi:(Some 350))
      in
      Alcotest.(check int) "range count" 30 (List.length keys);
      Alcotest.(check bool) "ascending across intervals" true
        (List.sort compare keys = keys);
      (* Cursor across interval boundaries. *)
      let c = SM.cursor m in
      let rec drain last n =
        match SM.cursor_next c with
        | Some (k, _) ->
            Alcotest.(check bool) "cursor ascending" true (k > last);
            drain k (n + 1)
        | None -> n
      in
      Alcotest.(check int) "cursor count" 40 (drain min_int 0));
  Alcotest.(check int) "no stranded locks" 0 (SM.outstanding_locks m)

let test_snapshot_queue () =
  let q = Q.create () in
  Stm.atomic (fun () ->
      Q.put q 1;
      Q.put q 2;
      Q.put q 3);
  Stm.snapshot (fun () ->
      Alcotest.(check (option int)) "peek" (Some 1) (Q.peek q);
      Alcotest.(check int) "length" 3 (Q.committed_length q);
      Alcotest.check_raises "poll raises"
        (Invalid_argument
           "Transactional_queue: write inside a snapshot read section")
        (fun () -> ignore (Q.poll q)));
  (* An op-time take published before the pin is visible; one after is
     not (single-domain sequencing). *)
  ignore (Q.poll q);
  Stm.snapshot (fun () ->
      Alcotest.(check (option int)) "post-take peek" (Some 2) (Q.peek q))

(* Pinned sorted-map snapshot stays on its cut while another domain
   commits cross-interval writes. *)
let test_snapshot_sorted_map_pinned_vs_writers () =
  let m = SM.create ~splitters:[ 100; 200 ] () in
  Stm.atomic (fun () ->
      for i = 1 to 30 do
        ignore (SM.put m (i * 10) 0)
      done);
  Stm.snapshot (fun () ->
      let size0 = SM.size m in
      let keys0 = SM.fold (fun k _ acc -> k :: acc) m [] in
      let d =
        Domain.spawn (fun () ->
            for i = 31 to 60 do
              Stm.atomic (fun () -> ignore (SM.put m (i * 10) 0))
            done)
      in
      Domain.join d;
      Alcotest.(check int) "size pinned" size0 (SM.size m);
      Alcotest.(check (list int)) "fold pinned" keys0
        (SM.fold (fun k _ acc -> k :: acc) m []));
  Alcotest.(check int) "live size" 60 (Stm.snapshot (fun () -> SM.size m))

(* ---------------- reclamation properties (QCheck) ---------------- *)

(* A pinned reader keeps resolving its pinned version no matter how many
   writes land meanwhile, and once the pin is released the next publish
   trims the chain back to the bound. *)
let test_tvar_reclamation_property () =
  let prop =
    QCheck.Test.make
      ~name:"pinned tvar version survives; chain rebounds after unpin"
      ~count:40
      QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 40) small_int))
      (fun (v0, writes) ->
        let tv = Tvar.make v0 in
        let ok =
          Stm.snapshot (fun () ->
              let pinned = Tvar.get tv in
              let d =
                Domain.spawn (fun () ->
                    List.iter (fun v -> Stm.atomic (fun () -> Tvar.set tv v)) writes)
              in
              Domain.join d;
              (* Every re-read inside the pin resolves the pinned version,
                 never a newer or reclaimed one. *)
              Tvar.get tv = pinned && pinned = v0)
        in
        (* Unpinned: the next publishes trim the chain to the bound. *)
        Stm.atomic (fun () -> Tvar.set tv 424242);
        Stm.atomic (fun () -> Tvar.set tv 424243);
        ok
        && Tvar.history_length tv <= Stm.version_chain_bound
        && Stm.snapshot (fun () -> Tvar.get tv) = 424243)
  in
  QCheck.Test.check_exn prop

(* Same property at the collection layer: the map's shadow chains never
   lose the pinned cut, and rebound once the reader epoch advances. *)
let test_map_reclamation_property () =
  let prop =
    QCheck.Test.make
      ~name:"pinned map cut survives; shadow chains rebound after unpin"
      ~count:25
      QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair small_nat small_int))
      (fun writes ->
        let m = IM.create ~stripes:4 () in
        Stm.atomic (fun () -> ignore (IM.put m 0 0));
        let ok =
          Stm.snapshot (fun () ->
              let size0 = IM.size m in
              let v0 = IM.find m 0 in
              let d =
                Domain.spawn (fun () ->
                    List.iter
                      (fun (k, v) ->
                        Stm.atomic (fun () -> ignore (IM.put m (k mod 16) v)))
                      writes)
              in
              Domain.join d;
              IM.size m = size0 && IM.find m 0 = v0)
        in
        (* Advance past the reader epoch: publishes on every stripe trim
           each chain back to the bound. *)
        Stm.atomic (fun () ->
            for k = 0 to 15 do
              ignore (IM.put m k (-1))
            done);
        Stm.atomic (fun () -> ignore (IM.put m 0 (-2)));
        ok && IM.snapshot_history_length m <= Stm.version_chain_bound)
  in
  QCheck.Test.check_exn prop

(* Leak probe alongside test_key_leak: sustained write traffic with
   snapshots opening and closing must leave every chain at the bound, not
   growing with the write count. *)
let test_chains_bounded_under_traffic () =
  let tv = Tvar.make 0 in
  let m = SM.create ~splitters:[ 50 ] () in
  for round = 1 to 200 do
    Stm.atomic (fun () ->
        Tvar.set tv round;
        ignore (SM.put m (round mod 100) round));
    if round mod 10 = 0 then
      Stm.snapshot (fun () -> ignore (SM.size m + Tvar.get tv))
  done;
  Alcotest.(check bool) "tvar chain bounded" true
    (Tvar.history_length tv <= Stm.version_chain_bound);
  Alcotest.(check bool) "sorted-map chains bounded" true
    (SM.snapshot_history_length m <= Stm.version_chain_bound)

(* The hashed map's snapshot index under the same traffic: per-key chains
   stay at the bound, and removed keys' cells are unlinked once no reader
   needs their tombstones, so the cell count tracks the live keys, not the
   number of keys ever removed. *)
let test_hashed_map_index_bounded_under_traffic () =
  let m = IM.create () in
  for round = 1 to 200 do
    Stm.atomic (fun () -> ignore (IM.put m (round mod 100) round));
    if round mod 10 = 0 then
      Stm.snapshot (fun () ->
          ignore (IM.size m + IM.fold (fun _ v n -> n + v) m 0))
  done;
  Alcotest.(check bool) "hashed-map chains bounded" true
    (IM.snapshot_history_length m <= Stm.version_chain_bound);
  let churn = IM.create () in
  let cells_after n0 n1 =
    for k = n0 to n1 - 1 do
      Stm.atomic (fun () -> ignore (IM.put churn k k));
      ignore (IM.remove churn k)
    done;
    IM.snapshot_index_cells churn
  in
  (* Each stripe's index keeps at most one minimum-size table's worth of
     cells (16 buckets, plus the insert that triggers a sweep). *)
  let bound = IM.stripe_count churn * 17 in
  let c1 = cells_after 0 1_000 in
  let c2 = cells_after 1_000 10_000 in
  Alcotest.(check int) "map empty after churn" 0 (IM.size churn);
  Alcotest.(check bool)
    (Printf.sprintf "cells after 1,000 removals (%d) <= %d" c1 bound)
    true (c1 <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "cells after 10,000 removals (%d) <= %d" c2 bound)
    true (c2 <= bound)

(* A snapshot pinned before another domain grows every stripe's index
   (64 keys before the pin, 2,048 inserted after it: about 128 per
   stripe against 16-bucket tables, so at least two doublings each) and
   removes half the pre-pin keys keeps its size, fold and finds. *)
let test_pinned_map_reader_across_index_growth () =
  let m = IM.create () in
  Stm.atomic (fun () ->
      for k = 0 to 63 do
        ignore (IM.put m k (k * 10))
      done);
  let probes = List.init 64 Fun.id @ [ 1000; 2047; 3047 ] in
  Stm.snapshot (fun () ->
      let size0 = IM.size m in
      let fold0 () =
        List.sort compare (IM.fold (fun k v acc -> (k, v) :: acc) m [])
      in
      let bindings0 = fold0 () in
      let finds0 = List.map (IM.find m) probes in
      let d =
        Domain.spawn (fun () ->
            for batch = 0 to 127 do
              Stm.atomic (fun () ->
                  for i = 0 to 15 do
                    let k = 1000 + (batch * 16) + i in
                    ignore (IM.put m k k)
                  done)
            done;
            for k = 0 to 31 do
              Stm.atomic (fun () -> ignore (IM.remove m k))
            done)
      in
      Domain.join d;
      Alcotest.(check int) "size pinned" size0 (IM.size m);
      Alcotest.(check (list (pair int int))) "fold pinned" bindings0 (fold0 ());
      Alcotest.(check (list (option int))) "finds pinned" finds0
        (List.map (IM.find m) probes));
  Alcotest.(check bool) "indexes average over 64 cells per stripe" true
    (IM.snapshot_index_cells m > IM.stripe_count m * 64);
  Stm.snapshot (fun () ->
      Alcotest.(check int) "new snapshot: size" (64 - 32 + 2048) (IM.size m);
      Alcotest.(check (option int)) "new snapshot: removed key" None
        (IM.find m 0);
      Alcotest.(check (option int)) "new snapshot: kept key" (Some 320)
        (IM.find m 32);
      Alcotest.(check (option int)) "new snapshot: inserted key" (Some 2047)
        (IM.find m 2047))

(* ---------------- allocation budget ---------------- *)

(* The snapshot-read commit path is pin + chain reads + unpin: after
   warm-up it must stay within the issue's 215 minor-words budget per
   snapshot commit. *)
let test_snapshot_allocation_budget () =
  let tv = Tvar.make 1 and tw = Tvar.make 2 in
  for _ = 1 to 100 do
    ignore (Stm.snapshot (fun () -> Tvar.get tv + Tvar.get tw))
  done;
  let iters = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Stm.snapshot (fun () -> Tvar.get tv + Tvar.get tw))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot commit allocates %.1f words (<= 215)" per)
    true (per <= 215.)

let suites =
  [
    ( "snapshot",
      [
        Alcotest.test_case "tvar reads" `Quick test_snapshot_tvar_reads;
        Alcotest.test_case "counts as abort-free ro commit" `Quick
          test_snapshot_counts_as_ro_commit;
        Alcotest.test_case "rejects writes and nested atomics" `Quick
          test_snapshot_rejects_writes_and_atomics;
        Alcotest.test_case "nesting" `Quick test_snapshot_nesting;
        Alcotest.test_case "isolation across domains" `Quick
          test_snapshot_isolation_across_domains;
        Alcotest.test_case "map point/aggregate/cursor ops" `Quick
          test_snapshot_map_ops;
        Alcotest.test_case "sorted map cross-interval reads" `Quick
          test_snapshot_sorted_map_cross_interval;
        Alcotest.test_case "queue peek/length" `Quick test_snapshot_queue;
        Alcotest.test_case "sorted map pinned vs writers" `Quick
          test_snapshot_sorted_map_pinned_vs_writers;
      ] );
    ( "snapshot.reclamation",
      [
        Alcotest.test_case "tvar chain property" `Quick
          test_tvar_reclamation_property;
        Alcotest.test_case "map shadow chain property" `Quick
          test_map_reclamation_property;
        Alcotest.test_case "chains bounded under traffic" `Quick
          test_chains_bounded_under_traffic;
        Alcotest.test_case "hashed-map index bounded under traffic" `Quick
          test_hashed_map_index_bounded_under_traffic;
        Alcotest.test_case "pinned map reader across index growth" `Quick
          test_pinned_map_reader_across_index_growth;
        Alcotest.test_case "snapshot commit allocation budget" `Quick
          test_snapshot_allocation_budget;
      ] );
  ]
