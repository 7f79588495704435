(* Model-based tests for the plain host data structures (lib/coll). *)

module H = Coll.Chain_hashmap
module O = Coll.Ordmap
module Q = Coll.Fifo_deque

(* ------------------------------------------------------------------ *)
(* Chain_hashmap                                                       *)

let test_hashmap_basic () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  H.add h "a" 1;
  H.add h "b" 2;
  H.add h "a" 3;
  Alcotest.(check int) "size counts keys once" 2 (H.size h);
  Alcotest.(check (option int)) "replaced" (Some 3) (H.find h "a");
  H.remove h "a";
  Alcotest.(check (option int)) "removed" None (H.find h "a");
  H.remove h "a";
  Alcotest.(check int) "idempotent remove" 1 (H.size h)

let test_hashmap_resize () =
  let h = H.create ~initial_capacity:2 () in
  for i = 0 to 999 do
    H.add h i (i * i)
  done;
  Alcotest.(check int) "size after growth" 1000 (H.size h);
  for i = 0 to 999 do
    assert (H.find h i = Some (i * i))
  done

type map_op = Add of int * int | Remove of int | Clear

let gen_map_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Add (k mod 32, v)) small_nat small_int);
        (3, map (fun k -> Remove (k mod 32)) small_nat);
        (1, return Clear);
      ])

let arb_map_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add (k, v) -> Printf.sprintf "add(%d,%d)" k v
             | Remove k -> Printf.sprintf "rm(%d)" k
             | Clear -> "clear")
           ops))
    QCheck.Gen.(list_size (int_bound 200) gen_map_op)

let model_agrees apply_sut find_sut size_sut ops =
  let model = Hashtbl.create 16 in
  List.iter
    (fun op ->
      (match op with
      | Add (k, v) -> Hashtbl.replace model k v
      | Remove k -> Hashtbl.remove model k
      | Clear -> Hashtbl.reset model);
      apply_sut op)
    ops;
  Hashtbl.fold (fun k v ok -> ok && find_sut k = Some v) model true
  && size_sut () = Hashtbl.length model

let prop_hashmap_model =
  QCheck.Test.make ~name:"hashmap agrees with model" ~count:200 arb_map_ops
    (fun ops ->
      let h = H.create ~initial_capacity:2 () in
      let apply = function
        | Add (k, v) -> H.add h k v
        | Remove k -> H.remove h k
        | Clear -> H.clear h
      in
      model_agrees apply (H.find h) (fun () -> H.size h) ops)

(* ------------------------------------------------------------------ *)
(* Ordmap                                                              *)

let test_ordmap_basic () =
  let m = O.create ~compare:Int.compare () in
  List.iter (fun k -> O.add m k (string_of_int k)) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "size" 5 (O.size m);
  Alcotest.(check (option (pair int string)))
    "min" (Some (1, "1")) (O.min_binding m);
  Alcotest.(check (option (pair int string)))
    "max" (Some (9, "9")) (O.max_binding m);
  Alcotest.(check (list (pair int string)))
    "sorted iteration"
    [ (1, "1"); (3, "3"); (5, "5"); (7, "7"); (9, "9") ]
    (O.to_list m);
  O.remove m 5;
  Alcotest.(check (option string)) "removed root-ish" None (O.find m 5);
  O.check_balanced m

let test_ordmap_range () =
  let m = O.create ~compare:Int.compare () in
  for i = 0 to 20 do
    O.add m i i
  done;
  let collect lo hi =
    let acc = ref [] in
    O.iter_range (fun k _ -> acc := k :: !acc) m ~lo ~hi;
    List.rev !acc
  in
  Alcotest.(check (list int)) "half-open range" [ 5; 6; 7; 8; 9 ]
    (collect (Some 5) (Some 10));
  Alcotest.(check (list int)) "head range" [ 0; 1; 2 ] (collect None (Some 3));
  Alcotest.(check (list int)) "tail range" [ 18; 19; 20 ] (collect (Some 18) None)

let test_ordmap_reverse_comparator () =
  let m = O.create ~compare:(fun a b -> Int.compare b a) () in
  List.iter (fun k -> O.add m k ()) [ 1; 2; 3 ];
  Alcotest.(check (option (pair int unit)))
    "min under reverse order" (Some (3, ())) (O.min_binding m)

let prop_ordmap_model =
  QCheck.Test.make ~name:"ordmap agrees with model and stays balanced"
    ~count:200 arb_map_ops (fun ops ->
      let m = O.create ~compare:Int.compare () in
      let apply = function
        | Add (k, v) -> O.add m k v
        | Remove k -> O.remove m k
        | Clear -> O.clear m
      in
      let ok = model_agrees apply (O.find m) (fun () -> O.size m) ops in
      O.check_balanced m;
      let sorted = O.to_list m in
      ok
      && sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) sorted)

(* ------------------------------------------------------------------ *)
(* Fifo_deque                                                          *)

let test_deque_fifo () =
  let q = Q.create ~initial_capacity:2 () in
  for i = 1 to 100 do
    Q.enqueue q i
  done;
  let out = List.init 100 (fun _ -> Option.get (Q.dequeue q)) in
  Alcotest.(check (list int)) "fifo order" (List.init 100 (fun i -> i + 1)) out;
  Alcotest.(check (option int)) "drained" None (Q.dequeue q)

let test_deque_push_front () =
  let q = Q.create () in
  Q.enqueue q 2;
  Q.enqueue q 3;
  Q.push_front q 1;
  Alcotest.(check (list int)) "front insert" [ 1; 2; 3 ] (Q.to_list q);
  Alcotest.(check (option int)) "peek" (Some 1) (Q.peek q)

let prop_deque_model =
  QCheck.Test.make ~name:"deque agrees with two-list model" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let q = Q.create ~initial_capacity:1 () in
      let model = ref ([] : int list) in
      List.for_all
        (fun (enq, v) ->
          if enq then begin
            Q.enqueue q v;
            model := !model @ [ v ];
            true
          end
          else
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                  model := rest;
                  Some x
            in
            Q.dequeue q = expect)
        ops
      && Q.to_list q = !model)


(* ------------------------------------------------------------------ *)
(* Mvindex: per-key multi-version index                                *)

module V = Coll.Mvindex

let mv_create ?(hash = Hashtbl.hash) () = V.init ~hash ~equal:Int.equal 0 ignore

(* Publish with no reclamation: nothing is stamped <= -1. *)
let mv_put t stamp k v = ignore (V.publish t ~min_epoch:(-1) stamp k v)

let mv_bindings t ts =
  List.sort compare (V.fold_at (fun k v acc -> (k, v) :: acc) t ts [])

let test_mvindex_resolution () =
  let t = mv_create () in
  mv_put t 1 7 (Some 10);
  mv_put t 3 7 (Some 30);
  mv_put t 5 7 (Some 50);
  List.iter
    (fun (ts, expect) ->
      Alcotest.(check (option int))
        (Printf.sprintf "key 7 at stamp %d" ts)
        expect (V.find_at t ts 7))
    [
      (0, None); (1, Some 10); (2, Some 10); (3, Some 30); (4, Some 30);
      (5, Some 50); (100, Some 50);
    ];
  Alcotest.(check int) "three versions" 3 (V.chain_length_of t 7)

let test_mvindex_insert_after_stamp () =
  let t = mv_create () in
  mv_put t 1 1 (Some 1);
  mv_put t 7 2 (Some 2);
  Alcotest.(check (option int)) "absent before its stamp" None
    (V.find_at t 6 2);
  Alcotest.(check (option int)) "present at its stamp" (Some 2)
    (V.find_at t 7 2);
  Alcotest.(check (list (pair int int))) "fold at 6" [ (1, 1) ]
    (mv_bindings t 6);
  Alcotest.(check (list (pair int int))) "fold at 7" [ (1, 1); (2, 2) ]
    (mv_bindings t 7)

let test_mvindex_tombstone () =
  let t = mv_create () in
  mv_put t 1 4 (Some 40);
  mv_put t 2 5 (Some 50);
  mv_put t 3 4 None;
  Alcotest.(check (option int)) "before the tombstone" (Some 40)
    (V.find_at t 2 4);
  Alcotest.(check (option int)) "tombstone resolves absent" None
    (V.find_at t 3 4);
  Alcotest.(check (list (pair int int))) "fold skips the tombstone"
    [ (5, 50) ] (mv_bindings t 9);
  mv_put t 4 4 (Some 41);
  Alcotest.(check (option int)) "reinserted" (Some 41) (V.find_at t 4 4);
  Alcotest.(check (option int)) "gap stays absent" None (V.find_at t 3 4)

(* Versions of key 9 at stamps 1, 3, 5, 9 (tombstone); a publication at
   11 with min_epoch 4 keeps 11, 9, 5 and 3 (the first <= 4) and drops 1;
   at 12 with min_epoch 9 the first <= 9 is the tombstone itself. *)
let test_mvindex_trim () =
  let t = mv_create () in
  mv_put t 1 9 (Some 1);
  mv_put t 3 9 (Some 3);
  mv_put t 5 9 (Some 5);
  mv_put t 9 9 None;
  Alcotest.(check int) "no trim below -1" 4 (V.chain_length_of t 9);
  Alcotest.(check int) "one version reclaimed" 1
    (V.publish t ~min_epoch:4 11 9 (Some 11));
  Alcotest.(check int) "kept 11, 9, 5, 3" 4 (V.chain_length_of t 9);
  Alcotest.(check (option int)) "stamp 4 still resolves" (Some 3)
    (V.find_at t 4 9);
  Alcotest.(check int) "two versions reclaimed" 2
    (V.publish t ~min_epoch:9 12 9 (Some 12));
  Alcotest.(check int) "kept 12, 11, 9" 3 (V.chain_length_of t 9);
  Alcotest.(check (option int)) "stamp 9 resolves the tombstone" None
    (V.find_at t 9 9);
  Alcotest.(check (option int)) "stamp 11" (Some 11) (V.find_at t 11 9);
  (* A trim never cuts the only version >= the epoch. *)
  Alcotest.(check int) "nothing <= 0: keep all" 0
    (V.publish t ~min_epoch:0 13 9 (Some 13));
  Alcotest.(check int) "kept all four" 4 (V.chain_length_of t 9)

(* A fold already walking the table when the index grows under it (the
   callback publishes past two doublings) keeps resolving its stamp, and
   so does the new table. *)
let test_mvindex_growth_keeps_readers () =
  let t = mv_create () in
  for k = 0 to 15 do
    mv_put t (k + 1) k (Some k)
  done;
  let ts = 16 in
  let before = mv_bindings t ts in
  let grown = ref false in
  let mid_fold =
    V.fold_at
      (fun k v acc ->
        if not !grown then begin
          grown := true;
          (* overwrite, remove and insert *)
          for k = 0 to 7 do
            ignore (V.publish t ~min_epoch:ts (ts + 1 + k) k (Some (-k)))
          done;
          for k = 8 to 11 do
            ignore (V.publish t ~min_epoch:ts (ts + 10 + k) k None)
          done;
          for k = 100 to 199 do
            ignore (V.publish t ~min_epoch:ts (ts + k) k (Some k))
          done
        end;
        (k, v) :: acc)
      t ts []
  in
  Alcotest.(check bool) "index grew past 4x" true (V.cells t > 64);
  Alcotest.(check (list (pair int int))) "reader holding the old table"
    before (List.sort compare mid_fold);
  Alcotest.(check (list (pair int int))) "new table at the old stamp" before
    (mv_bindings t ts);
  for k = 0 to 15 do
    Alcotest.(check (option int)) "find at the old stamp" (Some k)
      (V.find_at t ts k)
  done;
  Alcotest.(check (option int)) "new table, new stamp" (Some (-3))
    (V.find_at t 1000 3);
  Alcotest.(check (option int)) "removed at the new stamp" None
    (V.find_at t 1000 9)

(* All keys share one bucket.  Removing keys and publishing at an epoch
   past their tombstones unlinks their cells; a fold already walking the
   bucket keeps seeing the same cut. *)
let test_mvindex_dead_cells () =
  let t = mv_create ~hash:(fun _ -> 0) () in
  for k = 1 to 8 do
    mv_put t k k (Some (k * 10))
  done;
  mv_put t 9 2 None;
  mv_put t 10 4 None;
  mv_put t 11 6 None;
  let ts = 11 in
  let expect = [ (1, 10); (3, 30); (5, 50); (7, 70); (8, 80) ] in
  Alcotest.(check int) "tombstoned cells still linked" 8 (V.cells t);
  let swept = ref false in
  let mid_fold =
    V.fold_at
      (fun k v acc ->
        if not !swept then begin
          swept := true;
          ignore (V.publish t ~min_epoch:ts 12 1 (Some 11))
        end;
        (k, v) :: acc)
      t ts []
  in
  Alcotest.(check (list (pair int int))) "reader holding the bucket" expect
    (List.sort compare mid_fold);
  Alcotest.(check int) "three dead cells unlinked" 5 (V.cells t);
  Alcotest.(check int) "unlinked key has no chain" 0 (V.chain_length_of t 4);
  Alcotest.(check (list (pair int int))) "fresh fold at the old stamp" expect
    (mv_bindings t ts);
  (* A tombstone above the epoch keeps its cell; at the epoch it goes. *)
  ignore (V.publish t ~min_epoch:12 13 7 None);
  ignore (V.publish t ~min_epoch:12 14 1 (Some 12));
  Alcotest.(check int) "tombstone above the epoch stays" 5 (V.cells t);
  ignore (V.publish t ~min_epoch:13 15 1 (Some 13));
  Alcotest.(check int) "tombstone at the epoch unlinked" 4 (V.cells t);
  Alcotest.(check (list (pair int int))) "final cut"
    [ (1, 13); (3, 30); (5, 50); (8, 80) ]
    (mv_bindings t 15)

(* A key no one writes again is still reclaimed: publications elsewhere
   sweep one more bucket each, round the table (16 buckets here). *)
let test_mvindex_round_sweep () =
  let t = mv_create () in
  for s = 1 to 5 do
    mv_put t s 0 (Some s)
  done;
  mv_put t 6 1 (Some 1);
  mv_put t 7 1 None;
  for s = 8 to 23 do
    ignore (V.publish t ~min_epoch:s (s + 1) 2 (Some s))
  done;
  Alcotest.(check int) "cold chain trimmed to one version" 1
    (V.chain_length_of t 0);
  Alcotest.(check (option int)) "cold key still resolves" (Some 5)
    (V.find_at t 100 0);
  Alcotest.(check int) "cold tombstone unlinked" 2 (V.cells t)

let suites =
  [
    ( "coll.hashmap",
      [
        Alcotest.test_case "basic" `Quick test_hashmap_basic;
        Alcotest.test_case "resize" `Quick test_hashmap_resize;
        QCheck_alcotest.to_alcotest prop_hashmap_model;
      ] );
    ( "coll.ordmap",
      [
        Alcotest.test_case "basic" `Quick test_ordmap_basic;
        Alcotest.test_case "range iteration" `Quick test_ordmap_range;
        Alcotest.test_case "reverse comparator" `Quick
          test_ordmap_reverse_comparator;
        QCheck_alcotest.to_alcotest prop_ordmap_model;
      ] );
    ( "coll.deque",
      [
        Alcotest.test_case "fifo" `Quick test_deque_fifo;
        Alcotest.test_case "push front" `Quick test_deque_push_front;
        QCheck_alcotest.to_alcotest prop_deque_model;
      ] );
    ( "coll.mvindex",
      [
        Alcotest.test_case "resolution at a stamp" `Quick
          test_mvindex_resolution;
        Alcotest.test_case "insert after a stamp is absent" `Quick
          test_mvindex_insert_after_stamp;
        Alcotest.test_case "tombstone resolves absent" `Quick
          test_mvindex_tombstone;
        Alcotest.test_case "trim keeps the epoch's version" `Quick
          test_mvindex_trim;
        Alcotest.test_case "growth keeps held readers" `Quick
          test_mvindex_growth_keeps_readers;
        Alcotest.test_case "dead cells unlinked, readers kept" `Quick
          test_mvindex_dead_cells;
        Alcotest.test_case "round sweep reclaims cold keys" `Quick
          test_mvindex_round_sweep;
      ] );
  ]
