(* Spans recorded by the benchmark around its calls into each layer.

   Each worker domain owns one buffer of preallocated off-heap columns
   (start, stop, parent, name and request id), so recording a span is a
   clock read and four stores: no allocation and no shared cache line.
   A buffer that is off makes [enter] return -1 and every other call a
   no-op, which is how the untraced runs pay (almost) nothing.

   Spans nest as a stack.  An exception that escapes a span (a
   transaction abort raised inside a collection operation) leaves it open;
   the next [unwind] or [leave] of an enclosing span closes it at that
   moment.  The transaction runner unwinds at every attempt, so a
   retried body's spans hang under the same [stm.atomic] span. *)

open Bigarray

(* Span names.  The first three name a request's span by its class
   (write, read, scan), in [Workload]'s class order. *)
let req_write = 0
let req_read = 1
let req_scan = 2
let stm_atomic = 3
let stm_snapshot = 4
let map_find = 5
let map_put = 6
let map_remove = 7
let places_find = 8
let places_put = 9
let places_fold = 10
let jbb_new_order = 11
let jbb_payment = 12
let jbb_order_status = 13
let jbb_delivery = 14
let jbb_stock_level = 15

let names =
  [|
    "req.write"; "req.read"; "req.scan"; "stm.atomic"; "stm.snapshot";
    "txcoll.map.find"; "txcoll.map.put"; "txcoll.map.remove";
    "places.sorted_find"; "places.sorted_put"; "places.sorted_fold";
    "jbb.new_order"; "jbb.payment"; "jbb.order_status"; "jbb.delivery";
    "jbb.stock_level";
  |]

let n_names = Array.length names
let name_bits = 6

type col = (int, int_elt, c_layout) Array1.t

type buf = {
  mutable on : bool;
  cap : int;
  start : col;
  stop : col;
  parent : col;
  tag : col; (* name lor (request lsl name_bits) *)
  mutable len : int;
  mutable top : int; (* innermost open span, -1 when none *)
  mutable req : int;
}

let col n : col = Array1.create int c_layout (max n 1)

let create cap =
  {
    on = false;
    cap;
    start = col cap;
    stop = col cap;
    parent = col cap;
    tag = col cap;
    len = 0;
    top = -1;
    req = 0;
  }

let off () = create 0

(* Start recording from an empty buffer. *)
let restart b =
  b.on <- b.cap > 0;
  b.len <- 0;
  b.top <- -1

(* Stop recording, keeping what was recorded. *)
let stop b = b.on <- false

(* A request never records more spans than this; a buffer with less room
   left stops recording whole requests rather than cut one in half. *)
let request_margin = 4096

let begin_request b req =
  b.req <- req;
  if b.on && b.cap - b.len < request_margin then b.on <- false

let enter b name =
  if not b.on then -1
  else begin
    let i = b.len in
    b.len <- i + 1;
    b.start.{i} <- Clock.now ();
    b.stop.{i} <- -1;
    b.parent.{i} <- b.top;
    b.tag.{i} <- name lor (b.req lsl name_bits);
    b.top <- i;
    i
  end

(* Open spans above [s] were entered after it, so their indices are
   larger. *)
let close_above b s t =
  while b.top > s do
    b.stop.{b.top} <- t;
    b.top <- b.parent.{b.top}
  done

let leave b s =
  if s >= 0 then begin
    let t = Clock.now () in
    close_above b s t;
    b.stop.{s} <- t;
    b.top <- b.parent.{s}
  end

let unwind b s = if s >= 0 && b.top > s then close_above b s (Clock.now ())

let rename b s name =
  if s >= 0 then b.tag.{s} <- name lor ((b.tag.{s} lsr name_bits) lsl name_bits)

let name_of b i = b.tag.{i} land ((1 lsl name_bits) - 1)

(* [f name duration self] for every closed span; self time is the span's
   duration minus the time its child spans cover.  Children of one span
   never overlap (one stack per domain), so their coverage is the sum of
   their durations. *)
let iter_spans b f =
  let cover = Array.make (max b.len 1) 0 in
  for i = 0 to b.len - 1 do
    let p = b.parent.{i} in
    if p >= 0 && b.stop.{i} >= 0 then
      cover.(p) <- cover.(p) + (b.stop.{i} - b.start.{i})
  done;
  for i = 0 to b.len - 1 do
    if b.stop.{i} >= 0 then begin
      let d = b.stop.{i} - b.start.{i} in
      f (name_of b i) d (d - cover.(i))
    end
  done

(* Tab-separated dump of the first [limit] spans of each buffer:
   domain, index, name, start_ns, stop_ns, parent, request. *)
let write_tsv path bufs ~limit =
  let oc = open_out path in
  output_string oc "domain\tspan\tname\tstart_ns\tstop_ns\tparent\trequest\n";
  Array.iteri
    (fun d b ->
      for i = 0 to min b.len limit - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" d i
          names.(name_of b i) b.start.{i} b.stop.{i} b.parent.{i}
          (b.tag.{i} lsr name_bits)
      done)
    bufs;
  close_out oc
