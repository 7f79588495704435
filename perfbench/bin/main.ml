(* The benchmark program: one workload, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-out FILE]

   Inputs are generated from the seed before anything is timed.  Episodes
   repeat until S seconds have passed (at least [min_episodes] of each
   kind).  With --trace 0 it prints the end-to-end metrics; with --trace 1
   the per-layer ones, from single-domain floors, a no-op episode and
   traced episodes alternating with untraced ones.  Each metric is printed
   with its unit, its sample count and the number of episodes it is the
   median of, then every audit result; the last line is one JSON
   object.  Exits 1 when a request or an audit failed. *)

open Perfbench

let domains = 2
let min_episodes = 3

let usage () =
  prerr_endline
    "usage: main.exe --workload map_zipf|jbb|places_audit --seed N --seconds S \
     --trace 0|1 [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) in
  let trace = ref (-1) and trace_out = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--trace-out" :: v :: r -> trace_out := v; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = !seed and traced = !trace = 1 in
  let per_domain, generate =
    match !workload with
    | "map_zipf" ->
        ( 200_000,
          fun per_domain ->
            Map_zipf.workload (Map_zipf.generate ~seed ~domains ~per_domain ()) )
    | "jbb" ->
        ( 20_000,
          fun per_domain ->
            Jbb_mix.workload (Jbb_mix.generate ~seed ~domains ~per_domain ()) )
    | "places_audit" ->
        ( 150_000,
          fun per_domain ->
            Places_audit.workload
              (Places_audit.generate ~seed ~domains ~per_domain ()) )
    | _ -> usage ()
  in
  let wl = generate per_domain in
  Driver.prepare_domain ();
  let bufs = Driver.buffers ~domains ~per_domain ~traced in
  let deadline = Clock.now () + (!seconds * 1_000_000_000) in
  let micro = if traced then Micro.all ~seed else [] in
  let noop =
    if not traced then []
    else
      let idle =
        Workload.
          {
            name = "noop";
            per_domain;
            setup =
              (fun () ->
                {
                  run = (fun _ _ -> write);
                  quiescent_scan = None;
                  check = (fun () -> []);
                  layer = (fun () -> []);
                });
          }
      in
      [ Driver.run_episode idle ~bufs ~traced:false ]
  in
  (* One line per episode on stderr, to see a run's drift. *)
  let episode ~traced =
    let e = Driver.run_episode wl ~bufs ~traced in
    Printf.eprintf "episode traced=%b setup=%.4fs req/s=%.0f p50/p99 us: %s\n%!" traced
      e.setup_s (Driver.req_per_s e)
      (String.concat " "
         (Array.to_list
            (Array.mapi
               (fun k c ->
                 Printf.sprintf "%s %.2f/%.2f" Workload.class_names.(k)
                   (float c.Driver.p50_ns /. 1e3) (float c.p99_ns /. 1e3))
               e.classes)));
    e
  in
  (* Untraced and traced episodes alternate in a traced run, so the
     tracing overhead compares neighbours in time. *)
  let rec loop i untraced traced_eps =
    let enough = List.length untraced >= min_episodes
                 && (not traced || List.length traced_eps >= min_episodes) in
    if enough && Clock.now () >= deadline then (List.rev untraced, List.rev traced_eps)
    else if traced && i mod 2 = 0 then
      loop (i + 1) untraced (episode ~traced:true :: traced_eps)
    else loop (i + 1) (episode ~traced:false :: untraced) traced_eps
  in
  (* The first episode warms the heap and caches: it is audited like the
     others but left out of the metrics. *)
  let warmup = episode ~traced:false in
  let untraced, traced_eps = loop 0 [] [] in
  let measured = (warmup :: untraced) @ traced_eps in
  let metrics =
    if traced then Driver.per_layer ~micro ~noop ~untraced ~traced:traced_eps
    else Driver.end_to_end untraced
  in
  if traced && !trace_out <> "" then
    Trace.write_tsv !trace_out bufs.traces ~limit:(1 lsl 16);
  let requests = Driver.total (fun e -> e.Driver.requests) measured in
  let failed_requests = Driver.total (fun e -> e.Driver.failed) measured in
  let checks = List.concat_map (fun e -> e.Driver.checks) measured in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let correct = failed_requests = 0 && failed_checks = 0 in
  Printf.printf
    "# workload=%s seed=%d domains=%d cores=%d per_domain=%d episodes=%d trace=%d\n"
    wl.name seed domains (Domain.recommended_domain_count ()) per_domain
    (List.length measured) !trace;
  List.iter
    (fun m ->
      Printf.printf "metric %-36s %14.4f %-6s n=%d episodes=%d\n" m.Driver.name m.value
        m.unit_ m.samples m.episodes)
    metrics;
  let names = List.sort_uniq compare (List.map fst checks) in
  List.iter
    (fun name ->
      let runs = List.filter (fun (n, _) -> n = name) checks in
      let ok = List.length (List.filter snd runs) in
      Printf.printf "check  %-36s %s (%d/%d episodes)\n" name
        (if ok = List.length runs then "ok" else "FAILED")
        ok (List.length runs))
    names;
  Printf.printf "error_rate %.6g (%d of %d requests failed, %d audits failed)\n"
    (float (failed_requests + failed_checks) /. float (max 1 requests))
    failed_requests requests failed_checks;
  List.iter
    (fun e -> List.iter (Printf.printf "error  %s\n") e.Driver.errors)
    measured;
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct requests
    (failed_requests + failed_checks)
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Driver.name
              (json_num m.value) m.unit_)
          metrics));
  exit (if correct then 0 else 1)
