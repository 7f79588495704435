(* Runs a workload as closed-loop episodes and turns them into metrics.

   An episode sets the workload up afresh (timed: setup_s), then each of
   [domains] worker domains runs its own pre-generated request stream
   once, back to back: every caller waits for its request before sending
   the next.  Each request is timed with the monotonic clock; the
   episode ends with the workload's quiescent scans, if it has any, then
   its audit and a commit-region leak check.  Every episode does the same
   work, and a run repeats episodes for as long as it measures; each
   figure is the median over the run's episodes of that episode's
   value. *)

module Stm = Tcc_stm.Stm

type class_stats = { n : int; p50_ns : int; p99_ns : int }

type span_stats = {
  s_n : int;
  dur_p50 : int;
  dur_p99 : int;
  self_p50 : int;
  self_p99 : int;
}

type episode = {
  setup_s : float;
  elapsed_s : float;
  requests : int;
  failed : int;
  errors : string list;
  minor_words : float;
  live_words : int; (* live major heap after the episode, collections still held *)
  classes : class_stats array;
  checks : (string * bool) list;
  atomics : int;
  attempts : int;
  commits : int;
  conflict_aborts : int;
  remote_aborts : int;
  region_waits : int;
  clock_bumps : int;
  versions_reclaimed : int;
  layer : (string * float) list;
  spans : span_stats array; (* by span name; empty when untraced *)
}

(* Per-domain sample memory, allocated once per process. *)
type buffers = {
  lat : Samples.vec array;
  cls : Samples.vec array;
  scratch : Samples.vec;
  traces : Trace.buf array;
}

let trace_capacity = 1 lsl 20

(* Times a workload's [quiescent_scan] runs per episode. *)
let quiescent_scans = 16

(* Minor heap of the main domain and of every worker, in words (64 MiB
   with 8-byte words).  A minor collection stops every domain at once.  At
   OCaml's default 256k words jbb collects about every millisecond, so a
   worker whose vCPU the host deschedules for a moment stalls the other at
   the next collection, and host load shows up in every tail latency; on
   places_audit the share of writes that a pause lands in sits near 1%,
   so write_p99 jumps between the writes' own tail and the pause.  At this
   size collections come tens of milliseconds apart. *)
let minor_heap_words = 1 lsl 23

(* Gives the calling domain the benchmark's minor heap and writes all of
   it once, so that the page faults of a fresh heap fall before timing. *)
let prepare_domain () =
  if (Gc.get ()).minor_heap_size <> minor_heap_words then
    Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words };
  (* A one-field block is two words with its header. *)
  for _ = 1 to minor_heap_words / 2 do
    ignore (Sys.opaque_identity (ref 0))
  done;
  Gc.minor ()

let regions_check () = ("stm.regions_held_zero", Stm.regions_held () = 0)

let buffers ~domains ~per_domain ~traced =
  let col () = Array.init domains (fun _ -> Samples.vec per_domain) in
  {
    lat = col ();
    cls = col ();
    scratch = Samples.vec (domains * per_domain);
    traces =
      Array.init domains (fun _ ->
          if traced then Trace.create trace_capacity else Trace.off ());
  }

let class_stats bufs ~per_domain k =
  let n = ref 0 in
  Array.iteri
    (fun d cls ->
      for i = 0 to per_domain - 1 do
        if cls.{i} = k then begin
          bufs.scratch.{!n} <- bufs.lat.(d).{i};
          incr n
        end
      done)
    bufs.cls;
  let n = !n in
  let p50_ns = Samples.percentile bufs.scratch n 0.50 in
  let p99_ns = Samples.percentile bufs.scratch n 0.99 in
  { n; p50_ns; p99_ns }

let span_stats traces =
  let count = Array.make Trace.n_names 0 in
  Array.iter
    (fun b -> Trace.iter_spans b (fun k _ _ -> count.(k) <- count.(k) + 1))
    traces;
  let durs = Array.map Samples.vec count and selfs = Array.map Samples.vec count in
  let fill = Array.make Trace.n_names 0 in
  Array.iter
    (fun b ->
      Trace.iter_spans b (fun k d s ->
          let i = fill.(k) in
          durs.(k).{i} <- d;
          selfs.(k).{i} <- s;
          fill.(k) <- i + 1))
    traces;
  Array.init Trace.n_names (fun k ->
      let n = count.(k) in
      let p v q = Samples.percentile v n q in
      {
        s_n = n;
        dur_p50 = p durs.(k) 0.50;
        dur_p99 = p durs.(k) 0.99;
        self_p50 = p selfs.(k) 0.50;
        self_p99 = p selfs.(k) 0.99;
      })

let run_episode (wl : Workload.t) ~bufs ~traced =
  let domains = Array.length bufs.lat and n = wl.per_domain in
  Gc.full_major ();
  let t0 = Clock.now () in
  let ep = wl.setup () in
  let setup_ns = Clock.now () - t0 in
  Array.iter (if traced then Trace.restart else Trace.stop) bufs.traces;
  let s0 = Stm.global_stats () and rw0 = Stm.commit_region_waits () in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let worker d () =
    let tr = bufs.traces.(d) and lat = bufs.lat.(d) and cls = bufs.cls.(d) in
    let c = Workload.ctx d tr in
    let failed = ref 0 and errors = ref [] in
    prepare_domain ();
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      Trace.begin_request tr ((d * n) + i);
      let s = Trace.enter tr Trace.req_write in
      let t0 = Clock.now () in
      let k =
        match ep.run c i with
        | k -> k
        | exception e ->
            incr failed;
            if List.length !errors < 3 then
              errors := Printexc.to_string e :: !errors;
            -1
      in
      let t1 = Clock.now () in
      Trace.rename tr s (max k 0);
      Trace.leave tr s;
      lat.{i} <- t1 - t0;
      cls.{i} <- k
    done;
    let words = Gc.minor_words () -. w0 in
    (Clock.now (), words, !failed, !errors, c.atomics, c.attempts)
  in
  (* Workers are fresh domains each episode: collections keep per-domain
     state in domain-local storage, which a long-lived domain would keep
     alive for every collection it ever touched. *)
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  let start = Clock.now () in
  Atomic.set go true;
  let outs = List.map Domain.join ds in
  let stop = List.fold_left (fun m (t, _, _, _, _, _) -> max m t) start outs in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let s1 = Stm.global_stats () in
  let classes = Array.init Workload.n_classes (class_stats bufs ~per_domain:n) in
  let scan_failed, scan_errors =
    match ep.quiescent_scan with
    | None -> (0, [])
    | Some f ->
        assert (classes.(Workload.scan).n = 0);
        let lat = bufs.scratch and failed = ref 0 and errors = ref [] in
        for i = 0 to quiescent_scans - 1 do
          let t0 = Clock.now () in
          (try f ()
           with e ->
             incr failed;
             errors := ("quiescent scan: " ^ Printexc.to_string e) :: !errors);
          lat.{i} <- Clock.now () - t0
        done;
        let p q = Samples.percentile lat quiescent_scans q in
        classes.(Workload.scan) <-
          { n = quiescent_scans; p50_ns = p 0.50; p99_ns = p 0.99 };
        (!failed, List.rev !errors)
  in
  let checks =
    (try ep.check () with e -> [ ("audit raised " ^ Printexc.to_string e, false) ])
    @ [ regions_check () ]
  in
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).live_words in
  {
    setup_s = float setup_ns *. 1e-9;
    elapsed_s = float (stop - start) *. 1e-9;
    requests = domains * n;
    failed = sum (fun (_, _, f, _, _, _) -> f) + scan_failed;
    errors = List.concat_map (fun (_, _, _, e, _, _) -> e) outs @ scan_errors;
    minor_words = List.fold_left (fun a (_, w, _, _, _, _) -> a +. w) 0. outs;
    live_words;
    classes;
    checks;
    atomics = sum (fun (_, _, _, _, a, _) -> a);
    attempts = sum (fun (_, _, _, _, _, a) -> a);
    commits = s1.commits - s0.commits;
    conflict_aborts = s1.conflict_aborts - s0.conflict_aborts;
    remote_aborts = s1.remote_aborts - s0.remote_aborts;
    region_waits = Stm.commit_region_waits () - rw0;
    clock_bumps = s1.clock_bumps - s0.clock_bumps;
    versions_reclaimed = s1.versions_reclaimed - s0.versions_reclaimed;
    layer = ep.layer ();
    spans = (if traced then span_stats bufs.traces else [||]);
  }

(* A metric as printed: name, value, unit, the samples behind it and the
   number of episodes whose values it is the median of. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  episodes : int;
}

let median f eps = Samples.median_float (List.map f eps)
let total f eps = List.fold_left (fun a e -> a + f e) 0 eps
let ratio a b = if b = 0 then 0. else float a /. float b
let req_per_s e = float e.requests /. e.elapsed_s

(* Every figure is a median over episodes, so a regression that slows
   half the episodes or more moves it.  Episodes, not shorter stretches,
   are the unit because jbb's tables grow through an episode: only whole
   episodes are alike. *)
let all_end_to_end eps =
  let episodes = List.length eps in
  let m name unit_ samples f = { name; value = median f eps; unit_; samples; episodes } in
  let requests = total (fun e -> e.requests) eps in
  let lat k =
    let pre = Workload.class_names.(k) in
    let samples = total (fun e -> e.classes.(k).n) eps in
    [
      m (pre ^ "_p50_us") "us" samples (fun e ->
          float e.classes.(k).p50_ns /. 1e3);
      m (pre ^ "_p99_us") "us" samples (fun e ->
          float e.classes.(k).p99_ns /. 1e3);
    ]
  in
  [
    m "setup_s" "s" episodes (fun e -> e.setup_s);
    m "req_per_s" "1/s" requests req_per_s;
  ]
  @ List.concat_map lat Workload.[ write; read; scan ]
  @ [
      m "alloc_words_per_req" "words" requests (fun e ->
          e.minor_words /. float e.requests);
      m "live_heap_mb" "MB" episodes (fun e ->
          float (e.live_words * (Sys.word_size / 8)) /. 1048576.);
    ]

(* Figures that move with host load far more than the rest, so that ten
   runs of the same code spread past any bound the benchmark may set:
   scan_p50 on map_zipf, a memory-bound fold of a 20 MB map that takes 4
   to 9 ms as the host's other tenants come and go.  They are reported,
   without a bound, by the traced run's untraced episodes under an [e2e.]
   prefix. *)
let unbounded = [ "scan_p50_us" ]

let end_to_end eps =
  List.filter (fun m -> not (List.mem m.name unbounded)) (all_end_to_end eps)

(* Figures from [Workload.episode.layer]; 0 with no samples on the
   workloads that never call the layer. *)
let workload_layer_names =
  [ "jbb.order_rows_end"; "places.batches_shipped_per_write"; "places.max_lag" ]

let per_layer ~micro ~noop ~untraced ~traced =
  let episodes = List.length traced in
  let m name unit_ samples f = { name; value = median f traced; unit_; samples; episodes } in
  let requests = total (fun e -> e.requests) traced in
  let count name f = m name "count" requests f in
  let per_1k name f = count name (fun e -> 1000. *. ratio (f e) e.requests) in
  let span name span_name unit_ pick =
    let k =
      let rec find i = if Trace.names.(i) = span_name then i else find (i + 1) in
      find 0
    in
    let scale = if unit_ = "us" then 1e-3 else 1. in
    m name unit_
      (total (fun e -> e.spans.(k).s_n) traced)
      (fun e -> float (pick e.spans.(k)) *. scale)
  in
  let p50 s = s.dur_p50 and p99 s = s.dur_p99 in
  let micro =
    List.map
      (fun (name, value) ->
        let unit_ =
          if String.ends_with ~suffix:"_us" name then "us"
          else if String.ends_with ~suffix:"_words" name then "words"
          else "ns"
        in
        { name; value; unit_; samples = Micro.reps; episodes = 1 })
      micro
  in
  let noop name pick =
    {
      name;
      value = median (fun e -> float (pick e.classes.(Workload.write))) noop;
      unit_ = "ns";
      samples = total (fun e -> e.classes.(Workload.write).n) noop;
      episodes = List.length noop;
    }
  in
  let untraced_rps = median req_per_s untraced and traced_rps = median req_per_s traced in
  micro
  @ [
      noop "harness.noop_req_p50_ns" (fun c -> c.p50_ns);
      noop "harness.noop_req_p99_ns" (fun c -> c.p99_ns);
      span "stm.atomic_self_p50_us" "stm.atomic" "us" (fun s -> s.self_p50);
      span "stm.atomic_self_p99_us" "stm.atomic" "us" (fun s -> s.self_p99);
      span "stm.snapshot_self_p50_ns" "stm.snapshot" "ns" (fun s -> s.self_p50);
      count "stm.attempts_per_commit" (fun e -> ratio e.attempts e.atomics);
      per_1k "stm.conflict_aborts_per_1k" (fun e -> e.conflict_aborts);
      per_1k "stm.remote_aborts_per_1k" (fun e -> e.remote_aborts);
      per_1k "stm.region_waits_per_1k" (fun e -> e.region_waits);
      count "stm.clock_bumps_per_commit" (fun e -> ratio e.clock_bumps e.commits);
      count "stm.commits_per_req" (fun e -> ratio e.commits e.requests);
      count "stm.versions_reclaimed_per_commit" (fun e ->
          ratio e.versions_reclaimed e.commits);
    ]
  @ List.concat_map
      (fun op ->
        let name = "txcoll.map." ^ op in
        [ span (name ^ "_p50_ns") name "ns" p50; span (name ^ "_p99_ns") name "ns" p99 ])
      [ "find"; "put"; "remove" ]
  @ [
      span "places.sorted_find_ns" "places.sorted_find" "ns" p50;
      span "places.sorted_put_ns" "places.sorted_put" "ns" p50;
      span "places.audit_fold_us" "places.sorted_fold" "us" p50;
    ]
  @ List.concat_map
      (fun op ->
        let name = "jbb." ^ op in
        [ span (name ^ "_p50_us") name "us" p50; span (name ^ "_p99_us") name "us" p99 ])
      [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ]
  @ List.map
      (fun name ->
        let has e = List.mem_assoc name e.layer in
        let samples = if List.for_all has traced then List.length traced else 0 in
        m name "count" samples (fun e ->
            Option.value ~default:0. (List.assoc_opt name e.layer)))
      workload_layer_names
  @ List.filter_map
      (fun m -> if List.mem m.name unbounded then Some { m with name = "e2e." ^ m.name } else None)
      (all_end_to_end untraced)
  @ [
      {
        name = "harness.untraced_req_per_s";
        value = untraced_rps;
        unit_ = "1/s";
        samples = total (fun e -> e.requests) untraced;
        episodes = List.length untraced;
      };
      {
        name = "harness.traced_req_per_s";
        value = traced_rps;
        unit_ = "1/s";
        samples = requests;
        episodes;
      };
      {
        name = "harness.trace_overhead_pct";
        value = (if untraced_rps = 0. then 0. else 100. *. (1. -. (traced_rps /. untraced_rps)));
        unit_ = "%";
        samples = requests;
        episodes;
      };
    ]
