(* What the driver needs from a workload, and the per-domain context its
   requests run in. *)

module Stm = Tcc_stm.Stm

(* Request classes; each has its own latency metrics. *)
let write = 0
let read = 1
let scan = 2
let n_classes = 3
let class_names = [| "write"; "read"; "scan" |]

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type ctx = {
  dom : int;
  tr : Trace.buf;
  mutable atomics : int; (* top-level [Stm.atomic] calls *)
  mutable attempts : int; (* bodies entered by those calls *)
}

let ctx dom tr = { dom; tr; atomics = 0; attempts = 0 }

(* [Stm.atomic f] inside an [stm.atomic] span, counting attempts. *)
let atomic c f =
  c.atomics <- c.atomics + 1;
  let s = Trace.enter c.tr Trace.stm_atomic in
  let v =
    Stm.atomic (fun () ->
        c.attempts <- c.attempts + 1;
        Trace.unwind c.tr s;
        f ())
  in
  Trace.leave c.tr s;
  v

(* [Stm.atomic f] counting attempts but without a span, for a workload
   whose transaction bodies run library code the benchmark cannot span:
   an [stm.atomic] span around them would report that code as stm self
   time. *)
let atomic_unspanned c f =
  c.atomics <- c.atomics + 1;
  Stm.atomic (fun () ->
      c.attempts <- c.attempts + 1;
      f ())

let snapshot c f =
  let s = Trace.enter c.tr Trace.stm_snapshot in
  let v = Stm.snapshot f in
  Trace.leave c.tr s;
  v

(* [f x y] inside a span named [name]. *)
let span2 c name f x y =
  let s = Trace.enter c.tr name in
  let v = f x y in
  Trace.leave c.tr s;
  v

let span3 c name f x y z =
  let s = Trace.enter c.tr name in
  let v = f x y z in
  Trace.leave c.tr s;
  v

(* One episode: fresh collections, each domain's request stream run once,
   then the audit. *)
type episode = {
  run : ctx -> int -> int;
      (** [run c i] executes request [i] of domain [c.dom]'s stream and
          returns its class; raises [Check_failed] when an output is
          wrong *)
  quiescent_scan : (unit -> unit) option;
      (** for a workload whose traffic has no scan class: a full read of
          the collection, run after the traffic has stopped and timed as
          the scan class; raises [Check_failed] when its result is wrong *)
  check : unit -> (string * bool) list;
      (** the workload's audit, at quiescence after the episode *)
  layer : unit -> (string * float) list;
      (** per-layer figures only this workload's state can give *)
}

type t = {
  name : string;
  per_domain : int; (* requests per domain per episode *)
  setup : unit -> episode; (* creates and prepopulates; timed as setup_s *)
}
