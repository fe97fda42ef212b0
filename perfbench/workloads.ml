(* The three end-to-end workloads, measured with tracing off.

   Each run reports all ten end-to-end metrics.  The workload's own phase
   gets the measurement window (maximize-gowalla shares it with its read
   probe); the metrics it does not exercise come from a probe of the other
   paths, so a change that trades one path against another still shows on
   every workload (see NOTES.md for the probe sizes). *)

open Common

let setup_starts = 9
let setup_builds = 81
let probe_rounds = 40
let maximize_probes = 5

(* The protocol's default PCFR seed, which the serve workloads' maximize
   probe uses. *)
let probe_seed = 42

(* PCFR seeds of one run: five per benchmark seed, so a run's maximize
   time covers several plans, not one. *)
let pcfr_seeds seed = List.init 5 (fun j -> (seed * 10) + j)

(* Seeds of the two independent request streams of a run. *)
let read_seed seed = (7 * seed) + 1
let churn_rng seed = Graphcore.Rng.create ((7 * seed) + 2)

let ms s = s *. 1e3
let us s = s *. 1e6

type e2e = {
  setup_s : float;
  maximize_s : float;
  truss_gain : float;
  read_p50 : float;
  read_p99 : float;
  read_qps : float;
  mutate_p50 : float;
  mutate_p90 : float;
  peak_rss_mb : float;
}

let metrics r =
  [
    ("setup_s", r.setup_s, "s");
    ("maximize_s", r.maximize_s, "s");
    ("truss_gain", r.truss_gain, "edges");
    ("read_p50_us", us r.read_p50, "us");
    ("read_p99_us", us r.read_p99, "us");
    ("read_qps", r.read_qps, "req/s");
    ("mutate_p50_ms", ms r.mutate_p50, "ms");
    ("mutate_p90_ms", ms r.mutate_p90, "ms");
    ("peak_rss_mb", r.peak_rss_mb, "MB");
  ]

(* {2 maximize-gowalla} *)

let level_rows (levels : Maxtruss.Pcfr.level_stat list) =
  String.concat ";"
    (List.map
       (fun (l : Maxtruss.Pcfr.level_stat) ->
         Printf.sprintf "%d/%d/%d/%d/%d" l.h l.components l.plans l.inserted l.gain)
       levels)

let burst_rounds = 5

(* The window is shared: three quarters of it go to a probe daemon's read
   window, in one part before each of the run's PCFR seeds' calls, and the
   rest to PCFR calls, cycling over the seeds until each has run once and
   the window is spent.  The calls are spread over the run because the
   host's speed drifts over tens of seconds.  First call per seed: record
   its plan and fingerprint; later calls must reproduce it bit for bit.
   The daemon idles while PCFR runs and answers a burst of churn rounds
   after each call, so the mutate samples span the window as the maximize
   times do.  The benchmark's own heap is collected before every timed
   call, window and burst, so no measurement pays for the garbage of the
   one before. *)
let maximize_gowalla ~exe ~seed ~seconds =
  (* Set-up: dataset builds, all before anything else.  Each build's graph
     is collected before the next.  Builds made once the graph, the mirror
     and the daemon exist — between the read probe's parts or between the
     PCFR calls — raised the process's peak RSS from ~190 MB to 494, so the
     builds stay in one stretch here. *)
  let setup_s =
    median_list
      (List.init setup_builds (fun _ ->
           let _, dt = time build_graph in
           Gc.full_major ();
           dt))
  in
  let g = build_graph () in
  let seeds = Array.of_list (pcfr_seeds seed) in
  let n = Array.length seeds in
  let times = ref [] and prints = Array.make n "" and plans = Array.make n ([], 0) in
  let log = open_out_gen [ Open_append; Open_creat ] 0o644 (out_path "maximize-fingerprints.txt") in
  let m = Serve.mirror_of g in
  let d, _, stats = Serve.start ~exe ~extra:[] ~log:"daemon.log" in
  let kmax = Option.bind (Result.to_option (Json_min.parse stats)) (fun j -> Serve.json_int j "kmax") in
  let stream = Serve.read_stream ~seed:(read_seed seed) ~kmax:(Option.value ~default:0 kmax) m in
  let churn = churn_rng seed in
  let rs = ref [] and bursts = ref [] in
  let t_start = now () in
  let i = ref 0 in
  while !i < n || now () -. t_start < seconds do
    let j = !i mod n in
    if !i < n then begin
      Gc.full_major ();
      rs := Serve.read_window d stream ~seconds:(0.75 *. seconds /. float_of_int n) :: !rs
    end;
    Gc.full_major ();
    let res, dt = time (fun () -> Maxtruss.Pcfr.pcfr ~seed:seeds.(j) ~g ~k ~budget ()) in
    times := dt :: !times;
    let out = res.Maxtruss.Pcfr.outcome in
    let print = fingerprint out.Maxtruss.Outcome.inserted in
    attempt "maximize";
    if !i < n then begin
      prints.(j) <- print;
      plans.(j) <- (out.Maxtruss.Outcome.inserted, out.Maxtruss.Outcome.score);
      let line =
        Printf.sprintf "maximize seed=%d plan=%s gain=%d levels=%s" seeds.(j) print
          out.Maxtruss.Outcome.score (level_rows res.Maxtruss.Pcfr.levels)
      in
      print_endline line;
      output_string log (line ^ "\n")
    end
    else if print <> prints.(j) then fail "maximize" "pcfr seed %d: repeated run chose a different plan" seeds.(j);
    Gc.full_major ();
    bursts := Serve.churn_window d m ~rng:churn ~seconds:infinity ~max_rounds:burst_rounds :: !bursts;
    incr i
  done;
  close_out log;
  let peak_rss_mb = peak_rss_mb 0 in
  Serve.stop d;
  let rs = List.rev !rs in
  (* Checks, after the window. *)
  let dec_g = Truss.Decompose.run g in
  let gains =
    Array.to_list
      (Array.mapi
         (fun j (inserted, score) ->
           float_of_int (verify_plan ~what:(Printf.sprintf "pcfr seed %d" seeds.(j)) ~g ~dec_g ~inserted ~score))
         plans)
  in
  let e0 = Serve.oracle (Serve.mirror_of g) in
  Serve.check_stats ~epoch:e0 stats;
  (* Replay the run in order: read part k ran on the graph the bursts
     before it left. *)
  let vm = Serve.mirror_of g in
  let vstream = Serve.read_stream ~seed:(read_seed seed) ~kmax:(Service.Epoch.kmax e0) vm in
  let bursts = List.rev !bursts in
  List.iteri
    (fun k c ->
      Option.iter (Serve.verify_reads ~epoch:(Serve.oracle vm) vstream) (List.nth_opt rs k);
      Serve.verify_churn ~every:5 vm c)
    bursts;
  let mutate_lat = Array.concat (List.map (fun c -> Samples.to_array c.Serve.mutate_lat) bursts) in
  let read_p50, read_p99, read_qps = Serve.read_summary rs in
  {
    setup_s;
    maximize_s = median_list !times;
    truss_gain = mean_list gains;
    read_p50;
    read_p99;
    read_qps;
    mutate_p50 = quantile_arr mutate_lat 0.50;
    mutate_p90 = quantile_arr mutate_lat 0.90;
    peak_rss_mb;
  }

(* {2 The serve workloads} *)

(* [setup_starts] daemon starts, each timed from spawn to its first
   answered request; the last one stays up for the workload. *)
let serve_setup ~exe ~e0 =
  let rec go i starts =
    Gc.full_major ();
    let d, dt, stats = Serve.start ~exe ~extra:[] ~log:"daemon.log" in
    Serve.check_stats ~epoch:e0 stats;
    if i < setup_starts then begin
      Serve.stop d;
      go (i + 1) (dt :: starts)
    end
    else (d, median_list (dt :: starts))
  in
  go 1 []

(* The window in [maximize_probes] equal segments, each after an
   in-process Pcfr.pcfr call on the untouched graph while the daemon
   idles: the probe's samples then span the run as the window's do (the
   host's speed drifts over tens of seconds), and the daemon's heap and
   peak RSS hold only the workload's own requests.  Returns the segments
   and the probe calls' times and outcomes. *)
let probed_window ~g ~seconds segment =
  List.split
    (List.init maximize_probes (fun _ ->
         Gc.full_major ();
         let res, dt = time (fun () -> Maxtruss.Pcfr.pcfr ~seed:probe_seed ~g ~k ~budget ()) in
         attempt "maximize";
         Gc.full_major ();
         let seg = segment (seconds /. float_of_int maximize_probes) in
         (seg, (dt, res.Maxtruss.Pcfr.outcome))))

(* Check the probe plans — one seed on one graph, so all the same — and
   return their median time and verified gain. *)
let probe_summary ~g probes =
  let dec_g = Truss.Decompose.run g in
  let gains =
    List.map
      (fun (_, (o : Maxtruss.Outcome.t)) ->
        verify_plan ~what:"probe pcfr" ~g ~dec_g ~inserted:o.inserted ~score:o.score)
      probes
  in
  check "maximize" (List.length (List.sort_uniq Int.compare gains) = 1) "maximize probes disagree";
  (median_list (List.map fst probes), float_of_int (List.hd gains))

let serve_read ~exe ~seed ~seconds =
  let g = build_graph () in
  let m = Serve.mirror_of g in
  let e0 = Serve.oracle m in
  let d, setup_s = serve_setup ~exe ~e0 in
  let stream = Serve.read_stream ~seed:(read_seed seed) ~kmax:(Service.Epoch.kmax e0) m in
  let rs, probes = probed_window ~g ~seconds (fun seconds -> Serve.read_window d stream ~seconds) in
  let peak_rss_mb = peak_rss_mb d.Serve.pid in
  Gc.full_major ();
  let c = Serve.churn_window d m ~rng:(churn_rng seed) ~seconds:infinity ~max_rounds:probe_rounds in
  Serve.stop d;
  let vstream = Serve.read_stream ~seed:(read_seed seed) ~kmax:(Service.Epoch.kmax e0) (Serve.mirror_of g) in
  List.iter (Serve.verify_reads ~epoch:e0 vstream) rs;
  Serve.verify_churn ~every:5 (Serve.mirror_of g) c;
  let maximize_s, truss_gain = probe_summary ~g probes in
  let read_p50, read_p99, read_qps = Serve.read_summary rs in
  {
    setup_s;
    maximize_s;
    truss_gain;
    read_p50;
    read_p99;
    read_qps;
    mutate_p50 = quantile c.Serve.mutate_lat 0.50;
    mutate_p90 = quantile c.Serve.mutate_lat 0.90;
    peak_rss_mb;
  }

let serve_churn ~exe ~seed ~seconds =
  let g = build_graph () in
  let m = Serve.mirror_of g in
  let e0 = Serve.oracle m in
  let d, setup_s = serve_setup ~exe ~e0 in
  let rng = churn_rng seed in
  let cs, probes =
    probed_window ~g ~seconds (fun seconds -> Serve.churn_window d m ~rng ~seconds ~max_rounds:max_int)
  in
  let peak_rss_mb = peak_rss_mb d.Serve.pid in
  Serve.stop d;
  let vm = Serve.mirror_of g in
  List.iter (Serve.verify_churn ~every:8 vm) cs;
  let maximize_s, truss_gain = probe_summary ~g probes in
  let all f = Array.concat (List.map (fun c -> Samples.to_array (f c)) cs) in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0. cs in
  let mutate_lat = all (fun c -> c.Serve.mutate_lat) and read_lat = all (fun c -> c.Serve.read_lat) in
  {
    setup_s;
    maximize_s;
    truss_gain;
    read_p50 = quantile_arr read_lat 0.50;
    read_p99 = quantile_arr read_lat 0.99;
    read_qps = sum (fun c -> float_of_int c.Serve.churn_reads) /. sum (fun c -> c.Serve.active);
    mutate_p50 = quantile_arr mutate_lat 0.50;
    mutate_p90 = quantile_arr mutate_lat 0.90;
    peak_rss_mb;
  }

let names = [ "maximize-gowalla"; "serve-read"; "serve-churn" ]

let run name ~exe ~seed ~seconds =
  let f =
    match name with
    | "maximize-gowalla" -> maximize_gowalla
    | "serve-read" -> serve_read
    | "serve-churn" -> serve_churn
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  metrics (f ~exe ~seed ~seconds)
