(* Child mode for the flight-recorder abort test: Unix.fork is illegal
   once any domain has been spawned, so test_obs re-execs this binary
   with MAXTRUSS_FLIGHT_CHILD=<dump path> and we run the doomed scenario
   instead of the suite (it kills itself with SIGTERM; never returns). *)
let () =
  match Sys.getenv_opt "MAXTRUSS_FLIGHT_CHILD" with
  | Some dump -> Test_obs.flight_recorder_child dump
  | None -> ()

(* Same re-exec trick for the SIGUSR1 live-dump test: the child must
   prove it dumps on USR1 and keeps running (exit 0), unlike the fatal
   signals above. *)
let () =
  match Sys.getenv_opt "MAXTRUSS_FLIGHT_USR1_CHILD" with
  | Some dump -> Test_obs.flight_recorder_usr1_child dump
  | None -> ()

(* And for the GC-safety test: the child runs a span-heavy loop with
   collection on and must exit 0 under the minor-heap size it was given. *)
let () = if Sys.getenv_opt "MAXTRUSS_GC_CHILD" <> None then Test_obs.gc_safety_child ()

(* CI post-mortem: MAXTRUSS_FLIGHT_RECORD=N arms the flight recorder for
   the whole suite run, so a hung or killed CI job leaves a Chrome-trace
   tail (flight-record.json) that the workflow uploads as an artifact. *)
let () =
  match Sys.getenv_opt "MAXTRUSS_FLIGHT_RECORD" with
  | Some n when (match int_of_string_opt n with Some n -> n > 0 | None -> false) ->
    Obs.Flight_recorder.configure ~capacity:(int_of_string n);
    Obs.Flight_recorder.set_dump_path (Some "flight-record.json");
    Obs.Flight_recorder.install_crash_hooks ()
  | _ -> ()

let () =
  Alcotest.run "maxtruss"
    [
      ("rng", Test_rng.suite);
      ("edge_key", Test_edge_key.suite);
      ("union_find", Test_union_find.suite);
      ("bucket_queue", Test_bucket_queue.suite);
      ("min_heap", Test_min_heap.suite);
      ("graph", Test_graph.suite);
      ("csr", Test_csr.suite);
      ("gen", Test_gen.suite);
      ("gio", Test_gio.suite);
      ("gstats", Test_gstats.suite);
      ("flow", Test_flow.suite);
      ("support", Test_support.suite);
      ("decompose", Test_decompose.suite);
      ("truss_query", Test_truss_query.suite);
      ("onion", Test_onion.suite);
      ("connectivity", Test_connectivity.suite);
      ("maintain", Test_maintain.suite);
      ("plan", Test_plan.suite);
      ("candidate", Test_candidate.suite);
      ("score", Test_score.suite);
      ("random_interp", Test_random_interp.suite);
      ("block_dag", Test_block_dag.suite);
      ("flow_plan", Test_flow_plan.suite);
      ("convert", Test_convert.suite);
      ("dp", Test_dp.suite);
      ("baselines", Test_baselines.suite);
      ("pcfr", Test_pcfr.suite);
      ("exact", Test_exact.suite);
      ("kcore", Test_kcore.suite);
      ("index", Test_index.suite);
      ("outcome", Test_outcome.suite);
      ("datasets", Test_datasets.suite);
      ("json_min", Test_json_min.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("service", Test_service.suite);
      ("perf_baseline", Test_perf_baseline.suite);
      ("misc", Test_misc.suite);
      ("integration", Test_integration.suite);
    ]
