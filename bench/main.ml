(* Benchmark harness entry point.

   Default run regenerates every table and figure of the paper's
   evaluation section on the synthetic dataset stand-ins (quick grid).

     dune exec bench/main.exe                   # all experiments, quick grid
     dune exec bench/main.exe -- --full         # paper-sized grids (slow)
     dune exec bench/main.exe -- --only fig4,table5
     dune exec bench/main.exe -- --bechamel     # Bechamel kernel microbenches
     dune exec bench/main.exe -- --record BENCH_kernels.json   # write perf baseline
     dune exec bench/main.exe -- --check BENCH_kernels.json    # perf-regression gate
     dune exec bench/main.exe -- --check BENCH_kernels.json --tol 0.6 --kmad 10
     dune exec bench/main.exe -- --check BENCH_kernels.json --update  # move the bar
     dune exec bench/main.exe -- --record b.json --quota 4   # sampling budget/kernel
     dune exec bench/main.exe -- --obs --only table4 --json out.json
     dune exec bench/main.exe -- --domains 2 --only scaling  # parallel kernel pool
     dune exec bench/main.exe -- --list

   --record re-runs the Bechamel kernel suite and writes (overwrites) the
   median/MAD/alloc baseline (schema: METRICS_SCHEMA.md § baseline).
   --check compares a fresh run against the file and exits 1 when any
   kernel's fresh median exceeds baseline + max(tol * baseline, kmad * MAD)
   or its fresh allocation exceeds baseline + max(0.5 * baseline, 4096w).
   --check --update instead re-records exactly the regressed kernels,
   appends new ones, and exits 0.

   --openmetrics FILE writes the obs registry as OpenMetrics text after
   the run (implies --obs); --assert-openmetrics additionally fails the
   process unless that export parses line-by-line and carries at least one
   histogram _bucket series (the bench-smoke CI assertion). *)

let experiments =
  [
    ("table4", "Table IV: efficiency evaluation across datasets", Exp_table4.run);
    ("fig4", "Fig. 4: score/time vs budget b", Exp_fig4.run);
    ("fig5", "Fig. 5: score/time vs k", Exp_fig5.run);
    ("fig6a", "Fig. 6(a): PCR vs repetitions r", Exp_fig6.run_a);
    ("fig6b", "Fig. 6(b): DAG size vs k", Exp_fig6.run_b);
    ("table5", "Table V + Fig. 7: DP quality and time", Exp_dp.run);
    ("fig8", "Fig. 8: case study conversion ratios", Exp_fig8.run);
    ("scaling", "Table III companion: kernel scaling + ablations", Exp_scaling.run);
    ("flowsweep", "Parametric warm-start vs per-probe rebuild g-sweep", Exp_flow.run);
    ("corevs", "Motivation companion: truss vs core maximization", Exp_core_vs_truss.run);
    ("serve", "Service replay: sustained qps + tail latency of the request layer", Exp_serve.run);
  ]

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Hand-rolled JSON writer: two arrays of {name, value} records (wall-clock
   seconds + GC pressure for whole experiments, Bechamel OLS ns/run medians
   for kernels), plus — when the observability layer is on — the metrics
   object of Obs.metrics_json under the "obs" key.  Experiment scalars
   (e.g. the serve replay's sustained qps) ride in the kernels array with a
   "value" key instead of "ns_per_run". *)
let write_json file ~experiments ~kernels ~scalars =
  let oc =
    try open_out file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 1
  in
  let record fmt = Printf.fprintf oc fmt in
  let emit entries =
    List.iteri
      (fun i (name, key, value) ->
        record "    { \"name\": \"%s\", \"%s\": %.3f }%s\n" (json_escape name) key value
          (if i = List.length entries - 1 then "" else ","))
      entries
  in
  record "{\n";
  record "  \"experiments\": [\n";
  List.iteri
    (fun i (name, (t : Exp_common.timing)) ->
      record
        "    { \"name\": \"%s\", \"seconds\": %.3f, \"minor_collections\": %d, \
         \"major_collections\": %d, \"promoted_words\": %.0f }%s\n"
        (json_escape name) t.Exp_common.seconds t.Exp_common.minor_collections
        t.Exp_common.major_collections t.Exp_common.promoted_words
        (if i = List.length experiments - 1 then "" else ","))
    experiments;
  record "  ],\n";
  record "  \"kernels\": [\n";
  emit
    (List.map (fun (n, v) -> (n, "ns_per_run", v)) kernels
    @ List.map (fun (n, v) -> (n, "value", v)) scalars);
  record "  ]";
  if Obs.enabled () then record ",\n  \"obs\": %s" (String.trim (Obs.metrics_json ()));
  record "\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let bechamel = ref false in
  let json_file = ref None in
  let record_file = ref None in
  let check_file = ref None in
  let check_tol = ref 0.25 in
  let check_kmad = ref 5.0 in
  let check_update = ref false in
  let quota = ref None in
  let assert_counter = ref None in
  let openmetrics_file = ref None in
  let assert_openmetrics = ref false in
  let float_arg flag v =
    match float_of_string_opt v with
    | Some f when f >= 0. -> f
    | _ ->
      Printf.eprintf "%s expects a non-negative number, got %S\n" flag v;
      exit 2
  in
  let rec parse only = function
    | [] -> only
    | "--full" :: rest ->
      Exp_common.mode := Exp_common.Full;
      parse only rest
    | "--quick" :: rest ->
      Exp_common.mode := Exp_common.Quick;
      parse only rest
    | "--bechamel" :: rest ->
      bechamel := true;
      (* bare --bechamel runs no experiments; an explicit --only still does *)
      parse (match only with None -> Some [] | o -> o) rest
    | "--record" :: file :: rest ->
      record_file := Some file;
      bechamel := true;
      parse (match only with None -> Some [] | o -> o) rest
    | "--check" :: file :: rest ->
      check_file := Some file;
      bechamel := true;
      parse (match only with None -> Some [] | o -> o) rest
    | "--tol" :: v :: rest ->
      check_tol := float_arg "--tol" v;
      parse only rest
    | "--kmad" :: v :: rest ->
      check_kmad := float_arg "--kmad" v;
      parse only rest
    | "--update" :: rest ->
      check_update := true;
      parse only rest
    | "--openmetrics" :: file :: rest ->
      openmetrics_file := Some file;
      Obs.set_enabled true;
      parse only rest
    | "--assert-openmetrics" :: rest ->
      (* smoke-test hook: after the run, fail unless the OpenMetrics export
         parses and has at least one histogram _bucket series (implies --obs) *)
      assert_openmetrics := true;
      Obs.set_enabled true;
      parse only rest
    | "--quota" :: v :: rest ->
      quota := Some (float_arg "--quota" v);
      parse only rest
    | "--assert-counter" :: name :: rest ->
      (* smoke-test hook: after the selected experiments run, fail unless
         the named Obs counter is registered and non-zero (implies --obs) *)
      Obs.set_enabled true;
      assert_counter := Some name;
      parse only rest
    | "--domains" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> Par.set_domains n (* 0 = auto-size from the hardware *)
      | _ ->
        Printf.eprintf "--domains expects a non-negative integer (0 = auto), got %S\n" v;
        exit 2);
      parse only rest
    | [ ("--record" | "--check" | "--tol" | "--kmad" | "--quota" | "--domains" | "--json"
        | "--assert-counter" | "--openmetrics")
        as flag ] ->
      Printf.eprintf "%s requires an argument\n" flag;
      exit 2
    | "--obs" :: rest ->
      (* Spans/counters across the whole harness run; dumped to stderr at
         the end and merged into --json output under the "obs" key. *)
      Obs.set_enabled true;
      parse only rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse only rest
    | "--list" :: rest ->
      List.iter (fun (id, desc, _) -> Printf.printf "%-10s %s\n" id desc) experiments;
      parse (Some []) rest
    | "--only" :: spec :: rest -> parse (Some (String.split_on_char ',' spec)) rest
    | arg :: _ ->
      Printf.eprintf "unknown argument: %s\n" arg;
      exit 2
  in
  let only = parse None args in
  let selected =
    match only with
    | None -> experiments
    | Some [] -> []
    | Some ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  (* Baseline statistics want >= 5 samples even from second-long kernels, so
     record/check default to a larger Bechamel quota than interactive runs.
     Bechamel ramps the run count linearly (sample i costs i runs), so N
     samples of a t-second kernel need ~ N*(N+1)/2 * t seconds of quota:
     30s buys even a ~1.3s/run kernel 6 samples, while fast kernels stop
     at the 200-sample limit long before the quota. *)
  let quota_s =
    match !quota with
    | Some q -> q
    | None -> if !record_file <> None || !check_file <> None then 30.0 else 1.0
  in
  let kernel_runs = if !bechamel then Bechamel_suite.benchmark ~quota_s () else [] in
  let fresh_baseline () =
    {
      Perf_baseline.entries =
        List.map
          (fun (kr : Bechamel_suite.kernel_run) ->
            Perf_baseline.of_samples ~name:kr.Bechamel_suite.kr_name
              ~ns:kr.Bechamel_suite.kr_ns ~alloc_w:kr.Bechamel_suite.kr_alloc_w)
          kernel_runs;
    }
  in
  (match !record_file with
  | None -> ()
  | Some file -> (
    try
      Perf_baseline.write file (fresh_baseline ());
      Printf.printf "wrote baseline %s (%d kernels)\n" file (List.length kernel_runs)
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 1));
  let t0 = Unix.gettimeofday () in
  let timings =
    List.map
      (fun (id, _, run) ->
        let (), t = Exp_common.time run in
        (id, t))
      selected
  in
  if selected <> [] then
    Printf.printf "total harness time: %.1fs\n" (Unix.gettimeofday () -. t0);
  (match !json_file with
  | None -> ()
  | Some file ->
    let kernels =
      List.map
        (fun (kr : Bechamel_suite.kernel_run) ->
          (kr.Bechamel_suite.kr_name, kr.Bechamel_suite.kr_ns_est))
        kernel_runs
    in
    write_json file ~experiments:timings ~kernels ~scalars:(Exp_common.scalars ()));
  if Obs.enabled () then Obs.report stderr;
  (match !openmetrics_file with
  | None -> ()
  | Some file -> (
    try
      Obs.write_openmetrics file;
      Printf.printf "wrote %s\n" file
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" file msg;
      exit 1));
  if !assert_openmetrics then begin
    match Obs.lint_openmetrics (Obs.openmetrics ()) with
    | Ok lines ->
      Printf.printf "openmetrics export ok: %d lines, _bucket series present\n" lines
    | Error msg ->
      Printf.eprintf "openmetrics assertion failed: %s\n" msg;
      exit 1
  end;
  (match !assert_counter with
  | None -> ()
  | Some name -> (
    match List.assoc_opt name (Obs.counters ()) with
    | Some v when v > 0 -> Printf.printf "counter %s = %d (> 0, ok)\n" name v
    | Some _ ->
      Printf.eprintf "counter assertion failed: %s is zero\n" name;
      exit 1
    | None ->
      Printf.eprintf "counter assertion failed: %s was never registered\n" name;
      exit 1));
  match !check_file with
  | None -> ()
  | Some file -> (
    match Perf_baseline.read file with
    | Error msg ->
      Printf.eprintf "cannot read baseline %s: %s\n" file msg;
      exit 1
    | Ok baseline ->
      let fresh = fresh_baseline () in
      let deltas =
        Perf_baseline.compare ~rel_tol:!check_tol ~mad_k:!check_kmad ~baseline ~fresh ()
      in
      Perf_baseline.print_table stdout deltas;
      let regs = Perf_baseline.regressions deltas in
      let added =
        List.filter (fun d -> d.Perf_baseline.d_verdict = Perf_baseline.Added) deltas
      in
      if !check_update then begin
        (* Accept the fresh measurements for exactly the kernels that failed
           a gate and append kernels new to the suite; everything still in
           tolerance keeps its original statistics.  Always exits 0 — this
           is the "the change is intentional, move the bar" path. *)
        if regs = [] && added = [] then
          Printf.printf "perf gate: %d kernels within tolerance of %s (nothing to update)\n"
            (List.length deltas) file
        else begin
          let fresh_tbl = Hashtbl.create 16 in
          List.iter
            (fun (e : Perf_baseline.entry) -> Hashtbl.replace fresh_tbl e.Perf_baseline.name e)
            fresh.Perf_baseline.entries;
          let regressed = Hashtbl.create 16 in
          List.iter
            (fun (d : Perf_baseline.delta) ->
              Hashtbl.replace regressed d.Perf_baseline.d_name ())
            regs;
          let entries =
            List.map
              (fun (be : Perf_baseline.entry) ->
                match
                  ( Hashtbl.mem regressed be.Perf_baseline.name,
                    Hashtbl.find_opt fresh_tbl be.Perf_baseline.name )
                with
                | true, Some fe -> fe
                | _ -> be)
              baseline.Perf_baseline.entries
            @ List.filter_map
                (fun (d : Perf_baseline.delta) ->
                  Hashtbl.find_opt fresh_tbl d.Perf_baseline.d_name)
                added
          in
          (try Perf_baseline.write file { Perf_baseline.entries }
           with Sys_error msg ->
             Printf.eprintf "cannot write %s: %s\n" file msg;
             exit 1);
          Printf.printf "updated %s: re-recorded %d regressed kernel(s), appended %d new\n"
            file (List.length regs) (List.length added)
        end
      end
      else if regs <> [] then begin
        Printf.eprintf
          "perf gate: %d kernel(s) regressed beyond tolerance (tol %.0f%%, kmad %.1f, \
           alloc %.0f%%):\n"
          (List.length regs) (100. *. !check_tol) !check_kmad (100. *. Perf_baseline.alloc_tol);
        List.iter
          (fun (d : Perf_baseline.delta) ->
            Printf.eprintf "  %-40s %.0fns -> %.0fns (+%.1f%%)%s\n" d.Perf_baseline.d_name
              d.Perf_baseline.d_base_ns d.Perf_baseline.d_fresh_ns
              (100.
              *. (d.Perf_baseline.d_fresh_ns -. d.Perf_baseline.d_base_ns)
              /. Float.max 1. d.Perf_baseline.d_base_ns)
              (if d.Perf_baseline.d_alloc_regression then
                 Printf.sprintf " [alloc %.0fw -> %.0fw]" d.Perf_baseline.d_base_alloc_w
                   d.Perf_baseline.d_fresh_alloc_w
               else ""))
          regs;
        exit 1
      end
      else Printf.printf "perf gate: %d kernels within tolerance of %s\n"
             (List.length deltas) file)
