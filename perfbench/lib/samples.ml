(* Exact order statistics over off-heap sample vectors.

   Latencies and inputs live in Bigarrays so that the benchmark's own
   bookkeeping stays out of the OCaml heap whose peak [heap_peak_mb]
   reports.  Percentiles are exact nearest-rank order statistics found by
   in-place selection, never bucketed: a bucketed p50 would read the same
   on every run and hide real movement. *)

open Bigarray

type vec = (int, int_elt, c_layout) Array1.t

let vec n : vec =
  let v = Array1.create int c_layout (max n 1) in
  Array1.fill v 0;
  v

let swap (v : vec) i j =
  let t = v.{i} in
  v.{i} <- v.{j};
  v.{j} <- t

(* Rearrange v.{lo..hi} so that v.{k} holds the k-th smallest element
   (Hoare selection with a median-of-three pivot). *)
let rec select (v : vec) lo hi k =
  if lo < hi then begin
    let mid = lo + ((hi - lo) / 2) in
    if v.{mid} < v.{lo} then swap v mid lo;
    if v.{hi} < v.{lo} then swap v hi lo;
    if v.{hi} < v.{mid} then swap v hi mid;
    let pivot = v.{mid} in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while v.{!i} < pivot do incr i done;
      while v.{!j} > pivot do decr j done;
      if !i <= !j then begin
        swap v !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then select v lo !j k
    else if k >= !i then select v !i hi k
  end

(* Nearest-rank percentile [p] (in [0, 1]) of the first [n] elements;
   reorders them.  0 when [n = 0]. *)
let percentile (v : vec) n p =
  if n = 0 then 0
  else begin
    let k = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)) in
    select v 0 (n - 1) k;
    v.{k}
  end

let median_float = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
