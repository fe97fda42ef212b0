(* Plumbing shared by the maxtruss and maxtruss-serve binaries: graph
   loading, the cmdliner terms both expose, and the observability
   setup/export choreography. *)

open Cmdliner

(* Run [f], reporting success as "<what> written to <path>" on stderr
   (stdout is maxtruss-serve's protocol stream); a Sys_error (unwritable
   directory, permission, ...) becomes a one-line stderr message and
   [false] instead of an escaped backtrace. *)
let guarded_write ~what ~path f =
  match f () with
  | () ->
    Printf.eprintf "%s written to %s\n" what path;
    true
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" path msg;
    false

let load_graph input dataset =
  match (input, dataset) with
  | Some path, None -> Ok (Graphcore.Gio.load path)
  | None, Some name -> (
    match Datasets.Registry.find name with
    | spec -> Ok (spec.Datasets.Registry.build ())
    | exception Not_found ->
      Error (Printf.sprintf "unknown dataset %S (try `maxtruss datasets`)" name))
  | Some _, Some _ -> Error "pass either --input or --dataset, not both"
  | None, None -> Error "an input graph is required: --input FILE or --dataset NAME"

(* Common options *)

let input =
  let doc = "Edge-list file to load (SNAP format: `u v` per line, # comments)." in
  Arg.(value & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let dataset_opt =
  let doc = "Built-in synthetic dataset name (see $(b,maxtruss datasets))." in
  Arg.(value & opt (some string) None & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let k_arg =
  let doc = "Target truss number k." in
  Arg.(value & opt int 0 & info [ "k" ] ~docv:"K" ~doc)

let budget_arg =
  let doc = "Insertion budget b." in
  Arg.(value & opt int 200 & info [ "b"; "budget" ] ~docv:"B" ~doc)

let seed_arg =
  let doc = "Random seed for the randomized phases." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Worker domains for the parallel kernels (default: $(b,MAXTRUSS_DOMAINS) or 1); \
     $(docv) = 0 auto-sizes from the machine's available cores (clamped to 64). \
     Results are identical at any domain count."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* Absent means "leave whatever MAXTRUSS_DOMAINS resolves to"; an explicit
   value — 0 included — goes to the pool ([Par.set_domains 0] auto-sizes). *)
let apply_domains = function None -> () | Some n -> Par.set_domains n

let g_probes_arg =
  let doc =
    "Min-cut evaluations per g-sweep (sweep depth of the parametric flow engine); \
     the paper uses 10.  Only meaningful for the flow-based algorithms \
     (pcfr, pcf)."
  in
  Arg.(value & opt int 10 & info [ "g-probes" ] ~docv:"N" ~doc)

(* Observability options (identical across binaries) *)

let stats_flag =
  let doc = "Print the observability span tree (inclusive/exclusive times, counters) to stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let metrics_out =
  let doc = "Write the observability metrics JSON (see METRICS_SCHEMA.md) to this file." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out =
  let doc = "Write a Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) to this file." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let openmetrics_out =
  let doc =
    "Write the observability registry (counters, gauges, span-duration histograms) as \
     OpenMetrics/Prometheus text to this file."
  in
  Arg.(value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)

let flight_record_arg =
  let doc =
    "Keep a ring of the last $(docv) completed spans and dump them as Chrome-trace JSON \
     at exit or on SIGTERM/SIGINT — a post-mortem tail for hung or killed runs.  SIGUSR1 \
     dumps without terminating (live inspection). \
     Default: $(b,MAXTRUSS_FLIGHT_RECORD) or off."
  in
  Arg.(value & opt int 0 & info [ "flight-record" ] ~docv:"N" ~doc)

let flight_dump_arg =
  let doc = "Where --flight-record writes its dump." in
  Arg.(
    value
    & opt string "maxtruss-flight.json"
    & info [ "flight-dump" ] ~docv:"FILE" ~doc)

(* --flight-record N beats MAXTRUSS_FLIGHT_RECORD beats off.  Recording
   needs the obs layer on (cells are filled at span close), so a non-zero
   capacity enables it. *)
let setup_flight_recorder ~capacity ~dump =
  let capacity =
    if capacity > 0 then capacity
    else
      match Sys.getenv_opt "MAXTRUSS_FLIGHT_RECORD" with
      | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 0)
      | None -> 0
  in
  if capacity > 0 then begin
    Obs.set_enabled true;
    Obs.Flight_recorder.configure ~capacity;
    Obs.Flight_recorder.set_dump_path (Some dump);
    Obs.Flight_recorder.install_crash_hooks ();
    Printf.eprintf "[obs] flight recorder on: last %d spans -> %s\n%!" capacity dump
  end

(* Enable collection up front when any export flag will need it. *)
let enable_obs_if_requested ~stats ~metrics ~trace ~openmetrics =
  if stats || metrics <> None || trace <> None || openmetrics <> None then Obs.set_enabled true

(* The common export tail: span tree to stderr, then each requested file.
   Returns false if any write failed. *)
let export_obs ~stats ~metrics ~trace ~openmetrics =
  let ok = ref true in
  let write path ~what f = if not (guarded_write ~what ~path f) then ok := false in
  if stats then Obs.report stderr;
  (match metrics with
  | Some path -> write path ~what:"metrics" (fun () -> Obs.write_metrics path)
  | None -> ());
  (match trace with
  | Some path -> write path ~what:"trace" (fun () -> Obs.write_chrome_trace path)
  | None -> ());
  (match openmetrics with
  | Some path -> write path ~what:"openmetrics" (fun () -> Obs.write_openmetrics path)
  | None -> ());
  !ok
