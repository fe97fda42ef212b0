(* perfbench — the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH

   Runs one workload (maximize-gowalla, serve-read, serve-churn) and prints
   its metrics as the last line of stdout, one JSON object.  --trace 0
   measures the end-to-end metrics with tracing off; --trace 1 is the
   separate traced run giving the per-layer metrics.  perfbench/run.py
   builds the program and calls this; see NOTES.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and exe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the PCFR runs and request streams");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--serve-exe", Arg.Set_string exe, "PATH maxtruss-serve binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH";
  if not (List.mem !workload Workloads.names) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload (String.concat ", " Workloads.names);
    exit 2
  end;
  (* One domain everywhere: the load must fit two cores, one client and
     one daemon. *)
  Par.set_domains 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Serve.kill_all;
  let metrics =
    try
      if !trace = 0 then Workloads.run !workload ~exe:!exe ~seed:!seed ~seconds:!seconds
      else Layers.run ~exe:!exe ~seed:!seed
    with e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      Serve.kill_all ();
      exit 1
  in
  let metrics = if !trace = 0 then metrics @ [ ("success_rate", Common.success_rate (), "ratio") ] else metrics in
  Common.print_result metrics
