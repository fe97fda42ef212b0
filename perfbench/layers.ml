(* The traced run: per-layer numbers, timed from outside.

   Nothing here adds a span inside the library.  Layer times come from
   timing calls into each layer's public functions on the inputs the
   workloads use (the gowalla graph, the run's PCFR seed, the seeded read
   and churn streams); counts come from the existing Obs counters during
   one traced PCFR run and from the daemon's own stats detail.  The span
   tree of the traced runs is kept under perfbench/out/ as an artifact.
   Every traced run reports the whole per-layer set, whatever its
   workload: the layers are shared, only the pairing in NOTES.md differs. *)

open Graphcore
open Common

let ms s = s *. 1e3
let us s = s *. 1e6

let p50 l = median_list l

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

let write_span_tree ~name =
  Obs.write_metrics (out_path (name ^ ".metrics.json"));
  let oc = open_out (out_path (name ^ ".spans.txt")) in
  Obs.report oc;
  close_out oc

(* Split a result's inserted list back into levels: Pcfr.run lists the
   levels in order, each level's pairs reversed. *)
let inserted_by_level (res : Maxtruss.Pcfr.result) =
  let rec split acc rest = function
    | [] -> List.rev acc
    | (l : Maxtruss.Pcfr.level_stat) :: levels ->
      let mine = List.filteri (fun i _ -> i < l.inserted) rest in
      let rest = List.filteri (fun i _ -> i >= l.inserted) rest in
      split ((l.h, mine) :: acc) rest levels
  in
  split [] res.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted res.Maxtruss.Pcfr.levels

type level_times = {
  mutable decompose : float;
  mutable components : float;
  mutable make_ctx : float;
  mutable revenue : float;
  mutable dp : float;
}

(* Occurrences of the span [name] under the level-1 span of the traced
   run, summed over paths. *)
let level1_spans name =
  List.fold_left
    (fun acc (s : Obs.span_stat) ->
      let parts = String.split_on_char '/' s.path in
      if List.mem "pcfr.level(h=1)" parts && List.nth parts (List.length parts - 1) = name then acc + s.count
      else acc)
    0 (Obs.span_stats ())

(* Flow sweeps and conversions of one level's components, the way
   Pcfr's flow phase drives them: DAGs built outside the timer, sweeps
   timed one by one, selections deduplicated and capped as in Pcfr, each
   conversion timed.  The caller checks the sweep and conversion counts
   against the traced run's level-1 spans, so a change to Pcfr's dedup or
   cap that this copy misses fails the run. *)
let flow_and_convert ~ctx ~dec ~(config : Maxtruss.Pcfr.config) comps =
  let sweep_s = ref 0. and sweeps = ref 0 and converts = ref [] in
  List.iter
    (fun component ->
      let h = Truss.Onion.build_h ~g:ctx.Maxtruss.Score.g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:component in
      let onion = Truss.Onion.peel ~h ~k ~candidates:component () in
      let dag = Maxtruss.Block_dag.build ~h ~dec ~k ~component ~onion in
      let seen = Hashtbl.create 16 in
      let selections =
        List.concat_map
          (fun (w1, w2) ->
            let sels, dt = time (fun () -> Maxtruss.Flow_plan.sweep ~dag ~w1 ~w2 ~probes:config.g_probes ()) in
            sweep_s := !sweep_s +. dt;
            incr sweeps;
            List.filter
              (fun (sel : Maxtruss.Flow_plan.selection) ->
                let signature = String.concat "," (List.map string_of_int sel.blocks) in
                let fresh = not (Hashtbl.mem seen signature) in
                Hashtbl.replace seen signature ();
                fresh)
              sels)
          config.w_pairs
      in
      let cap = max 4 (3 * config.g_probes / 2) in
      let n = List.length selections in
      let selections =
        if n <= cap then selections
        else
          let arr =
            Array.of_list
              (List.sort
                 (fun (a : Maxtruss.Flow_plan.selection) b -> Int.compare b.h_score a.h_score)
                 selections)
          in
          List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1)))
      in
      List.iter
        (fun (sel : Maxtruss.Flow_plan.selection) ->
          let target = Maxtruss.Block_dag.edges_of_blocks dag sel.blocks in
          if target <> [] then
            converts := snd (time (fun () -> Maxtruss.Convert.convert ~ctx ~target ())) :: !converts)
        selections)
    comps;
  (!sweep_s, !sweeps, !converts)

(* Re-run Pcfr.run's level loop call by call on the same inputs (same
   seed, the result's own insertions between levels), timing each layer
   call.  The replay must choose exactly the result's edges at every level
   — a check that the outside view drives the same computation. *)
let replay ~g ~pcfr_seed (res : Maxtruss.Pcfr.result) =
  let config = { (Maxtruss.Pcfr.default_config ~k ~budget) with seed = pcfr_seed } in
  let rng = Rng.create pcfr_seed in
  let by_level = inserted_by_level res in
  let gw = Graph.copy g in
  let total = { decompose = 0.; components = 0.; make_ctx = 0.; revenue = 0.; dp = 0. } in
  let level1 = ref None in
  let remaining = ref budget and h = ref 1 and continue = ref true in
  while
    !continue
    && !remaining > 0
    && (!h = 1 || !remaining >= config.min_level_budget)
    && k - !h >= 2
    && !h <= config.max_h
  do
    let dec, t_dec = time (fun () -> Truss.Decompose.run gw) in
    let comps, t_comp = time (fun () -> Truss.Connectivity.components ~g:gw ~dec ~lo:(k - !h) ~hi:k) in
    total.decompose <- total.decompose +. t_dec;
    total.components <- total.components +. t_comp;
    let committed = Option.value ~default:[] (List.assoc_opt !h by_level) in
    if comps <> [] then begin
      let ctx, t_ctx = time (fun () -> Maxtruss.Score.make_ctx gw ~k) in
      let level_config = if !h > 1 then { config with use_random = false } else config in
      let revenues, t_rev =
        time (fun () ->
            Array.of_list
              (List.map
                 (fun component ->
                   Maxtruss.Pcfr.component_revenue ~rng ~ctx ~dec ~config:level_config
                     ~budget:!remaining ~component)
                 comps))
      in
      let alloc, t_dp = time (fun () -> Maxtruss.Dp.solve ~revenues ~budget:!remaining) in
      total.make_ctx <- total.make_ctx +. t_ctx;
      total.revenue <- total.revenue +. t_rev;
      total.dp <- total.dp +. t_dp;
      let chosen =
        List.concat_map (fun (_, (p : Maxtruss.Plan.pair)) -> p.inserted) alloc.Maxtruss.Dp.chosen
        |> List.sort_uniq Edge_key.compare
        |> List.filter (fun key -> not (Graph.mem_edge_key gw key))
        |> List.filteri (fun i _ -> i < !remaining)
      in
      let expected = List.sort Edge_key.compare (Maxtruss.Score.keys_of_pairs committed) in
      check "replay" (chosen = expected) "replay of level %d chose %d edges, the run committed %d" !h
        (List.length chosen) (List.length expected);
      if !h = 1 then level1 := Some (ctx, dec, comps, t_rev, t_dp, config)
    end;
    List.iter (fun (u, v) -> ignore (Graph.add_edge gw u v)) committed;
    remaining := !remaining - List.length committed;
    if !h >= config.max_h then continue := false else incr h
  done;
  (total, !level1)

let maximize_layers ~g ~seed =
  let pcfr_seed = List.hd (Workloads.pcfr_seeds seed) in
  let run () = Maxtruss.Pcfr.pcfr ~seed:pcfr_seed ~g ~k ~budget () in
  let res, plain_s = time run in
  Obs.reset ();
  Obs.set_enabled true;
  let traced, traced_s = time run in
  Obs.set_enabled false;
  check "replay"
    (fingerprint traced.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted
    = fingerprint res.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted)
    "tracing changed the plan of pcfr seed %d" pcfr_seed;
  let counts =
    [
      ("graphcore.csr_snapshots", counter "csr.snapshots_built");
      ("truss.triangles_enumerated", counter "support.triangles_enumerated");
      ("flow.g_probes", counter "flow_plan.g_probes");
      ("flow.dinic_bfs_phases", counter "dinic.bfs_phases");
      ("maxtruss.conversions", counter "convert.conversions");
      ("maxtruss.score_evaluations", counter "score.evaluations");
    ]
  in
  let traced_sweeps = level1_spans "flow_plan.sweep" and traced_converts = level1_spans "convert.convert" in
  write_span_tree ~name:(Printf.sprintf "maximize-seed%d" pcfr_seed);
  Obs.reset ();
  let inserted = res.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted in
  let decompose_s = median_time 3 (fun () -> Truss.Decompose.run g) in
  let k_truss_s = median_time 3 (fun () -> Truss.Truss_query.k_truss_edges g ~k) in
  let make_ctx_s = median_time 3 (fun () -> Maxtruss.Score.make_ctx g ~k) in
  let oracle_s = median_time 3 (fun () -> Maxtruss.Score.evaluate_oracle g ~k ~inserted) in
  let total, level1 = replay ~g ~pcfr_seed res in
  (* The coverage's base: the untraced time before and after the replay,
     averaged, so a drift of the host's speed in between cancels. *)
  let plain_s = (plain_s +. snd (time run)) /. 2. in
  let ctx, dec, comps, revenue_s, dp_s, config =
    match level1 with Some l -> l | None -> failwith "the maximize run has no level-1 components"
  in
  let sweep_s, sweeps, converts = flow_and_convert ~ctx ~dec ~config comps in
  check "replay"
    (sweeps = traced_sweeps && List.length converts = traced_converts)
    "flow replay: %d sweeps and %d conversions, the traced run's level 1 had %d and %d" sweeps
    (List.length converts) traced_sweeps traced_converts;
  let covered =
    total.decompose +. total.components +. total.make_ctx +. total.revenue +. total.dp +. oracle_s
  in
  List.map (fun (name, c) -> (name, float_of_int c, "count")) counts
  @ [
      ("truss.decompose_ms", ms decompose_s, "ms");
      ("truss.k_truss_hashtbl_ms", ms k_truss_s, "ms");
      ("flow.sweep_ms", ms sweep_s, "ms");
      ("maxtruss.make_ctx_ms", ms make_ctx_s, "ms");
      ("maxtruss.evaluate_oracle_ms", ms oracle_s, "ms");
      ("maxtruss.component_revenue_ms", ms revenue_s, "ms");
      ("maxtruss.convert_p50_ms", ms (p50 converts), "ms");
      ("maxtruss.dp_solve_ms", ms dp_s, "ms");
      ("maxtruss.layer_coverage", covered /. plain_s, "ratio");
      ("obs.traced_overhead.maximize", (traced_s -. plain_s) /. plain_s, "ratio");
    ]

let read_ops = [ "decompose"; "trussness"; "truss-query"; "onion"; "stats" ]

(* Parse and evaluate the seeded read stream in-process on a warm epoch. *)
let read_layers ~m ~epoch ~seed =
  let stream = Serve.read_stream ~seed:(Workloads.read_seed seed) ~kmax:(Service.Epoch.kmax epoch) m in
  ignore (Service.Epoch.onion_layers epoch ~k);
  let parse = ref [] and index = ref [] in
  let exec = Hashtbl.create 8 in
  for _ = 1 to 10_000 do
    let _, line = Serve.next_read stream in
    let (parsed, _), dt = time (fun () -> Service.Request.parse_traced line) in
    parse := dt :: !parse;
    match parsed with
    | Error e -> fail "replay" "in-process parse of %s: %s" line e
    | Ok req ->
      let _, dt = time (fun () -> Service.Request.handle_read ~epoch req) in
      let op = Service.Request.op_name req in
      Hashtbl.replace exec op (dt :: Option.value ~default:[] (Hashtbl.find_opt exec op));
      (match req with
      | Service.Request.Truss_query { k = kq; _ } ->
        index := snd (time (fun () -> Truss.Index.truss_edges (Service.Epoch.index epoch) kq)) :: !index
      | _ -> ())
  done;
  let per_op q =
    List.map
      (fun op ->
        let samples = Option.value ~default:[] (Hashtbl.find_opt exec op) in
        ( Printf.sprintf "service.read_exec_p%02.0f_us.%s" (q *. 100.) op,
          us (quantile_arr (Array.of_list samples) q),
          "us" ))
      read_ops
  in
  [ ("service.parse_us", us (p50 !parse), "us"); ("truss.index_truss_edges_us", us (p50 !index), "us") ]
  @ per_op 0.50 @ per_op 0.99

let churn_batches = 20

let batch_ops (ins, del) =
  List.map (fun (u, v) -> Service.Mutation_log.Insert (u, v)) ins
  @ List.map (fun (u, v) -> Service.Mutation_log.Delete (u, v)) del

(* The churn stream in-process: for each batch, the steps of the
   mutation log's incremental path timed one by one on the epoch the batch
   applies to, then the batch itself through Mutation_log.apply, then a
   cold onion on the epoch it published. *)
let mutate_layers ~g ~seed =
  let churn_rng = Workloads.churn_rng seed in
  let m = Serve.mirror_of g in
  let create_s = median_time 3 (fun () -> Service.Epoch.create g) in
  let store = Service.Store.create (Service.Epoch.create g) in
  let fallbacks0 = Service.Mutation_log.fallback_count () in
  let copy = ref [] and csr = ref [] and maintain = ref [] and patched = ref [] and deltas = ref [] in
  let apply = ref [] and onion = ref [] and region = ref 0 in
  let push r x = r := x :: !r in
  let by_key (a, b) (c, d) = Edge_key.compare (Edge_key.make a b) (Edge_key.make c d) in
  for _ = 1 to churn_batches do
    let e = Service.Store.current store in
    let ((ins, del) as batch) = Serve.churn_batch ~rng:churn_rng m in
    let ins = List.sort by_key ins and del = List.sort by_key del in
    let dec0 = Service.Epoch.decompose e in
    let next, t = time (fun () -> Graph.copy (Service.Epoch.graph e)) in
    push copy t;
    ignore (Graph.add_edges next ins);
    ignore (Graph.remove_edges next del);
    push csr (snd (time (fun () -> Csr.of_graph next)));
    let r, t =
      time (fun () ->
          Truss.Maintain.batch_update_csr ~csr:(Service.Epoch.csr e)
            ~tau:(Truss.Decompose.trussness_opt dec0) ~kmax:(Truss.Decompose.kmax dec0) ~inserted:ins
            ~deleted:del)
    in
    push maintain t;
    let changes = r.Truss.Maintain.changes in
    push patched (snd (time (fun () -> Truss.Decompose.patched dec0 ~changes)));
    push deltas (snd (time (fun () -> Truss.Index.of_deltas (Service.Epoch.index e) ~changes)));
    let o, t = time (fun () -> Service.Mutation_log.apply store (batch_ops batch)) in
    push apply t;
    push onion (snd (time (fun () -> Service.Epoch.onion_layers o.Service.Mutation_log.epoch ~k)));
    region := !region + o.Service.Mutation_log.region_edges;
    Serve.apply_batch m batch;
    check "mutate"
      (o.Service.Mutation_log.inserted = 4 && o.Service.Mutation_log.deleted = 3)
      "in-process batch at generation %d applied %d/%d" m.Serve.gen o.Service.Mutation_log.inserted
      o.Service.Mutation_log.deleted
  done;
  (* One more batch with collection on, for the snapshot count. *)
  Obs.reset ();
  Obs.set_enabled true;
  let batch = Serve.churn_batch ~rng:churn_rng m in
  ignore (Service.Mutation_log.apply store (batch_ops batch));
  Obs.set_enabled false;
  let snapshots = counter "csr.snapshots_built" in
  Obs.reset ();
  let apply_s = p50 !apply in
  let steps = p50 !copy +. p50 !csr +. p50 !maintain +. p50 !patched +. p50 !deltas in
  ( [
      ("graphcore.csr_of_graph_ms", ms (p50 !csr), "ms");
      ("graphcore.graph_copy_ms", ms (p50 !copy), "ms");
      ("graphcore.csr_snapshots_per_mutate", float_of_int snapshots, "count");
      ("truss.maintain_batch_ms", ms (p50 !maintain), "ms");
      ("truss.decompose_patched_ms", ms (p50 !patched), "ms");
      ("truss.index_of_deltas_ms", ms (p50 !deltas), "ms");
      ("truss.onion_layers_cold_ms", ms (p50 !onion), "ms");
      ("service.mutate_apply_ms", ms apply_s, "ms");
      ("service.epoch_create_ms", ms create_s, "ms");
      ("service.incremental_speedup", create_s /. apply_s, "ratio");
      ("service.mutate_coverage", steps /. apply_s, "ratio");
      ("service.region_edges_per_batch", float_of_int !region /. float_of_int churn_batches, "count");
    ],
    Service.Mutation_log.fallback_count () - fallbacks0 )

let daemon_seconds = 3.

(* The same seeded read replay against an untraced daemon and a traced
   one (collection on, span tree and Chrome trace written on exit); the
   traced daemon's stats detail gives the queue-wait split and batching. *)
let daemon_layers ~exe ~g ~seed =
  let m = Serve.mirror_of g in
  let e0 = Serve.oracle m in
  let replay ~extra ~log =
    let d, _, stats = Serve.start ~exe ~extra ~log in
    Serve.check_stats ~epoch:e0 stats;
    let seed = Workloads.read_seed seed in
    let stream = Serve.read_stream ~seed ~kmax:(Service.Epoch.kmax e0) m in
    let r = Serve.read_window d stream ~seconds:daemon_seconds in
    Serve.verify_reads ~epoch:e0 (Serve.read_stream ~seed ~kmax:(Service.Epoch.kmax e0) (Serve.mirror_of m.Serve.g)) r;
    let p50, _, _ = Serve.read_summary [ r ] in
    (d, p50)
  in
  let tag = Printf.sprintf "daemon-seed%d" seed in
  let traced_args =
    [ "--stats"; "--metrics"; out_path (tag ^ ".metrics.json"); "--trace"; out_path (tag ^ ".trace.json") ]
  in
  (* Untraced and traced replays alternate, twice, so a drift of the
     host's speed does not pass for tracing cost; the last traced daemon
     answers the stats detail. *)
  let pair () =
    let d, plain = replay ~extra:[] ~log:"daemon.log" in
    Serve.stop d;
    let d, traced = replay ~extra:traced_args ~log:(tag ^ ".spans.txt") in
    (d, plain, traced)
  in
  let d, plain1, traced1 = pair () in
  Serve.stop d;
  let d, plain2, traced2 = pair () in
  let plain_p50 = (plain1 +. plain2) /. 2. and traced_p50 = (traced1 +. traced2) /. 2. in
  let detail = Serve.request d {|{"op":"stats","detail":true}|} in
  Serve.stop d;
  let json = match Json_min.parse detail with Ok j -> j | Error e -> failwith ("stats detail: " ^ e) in
  let path names =
    Json_min.num_or nan
      (List.fold_left (fun acc name -> Option.bind acc (Json_min.member name)) (Some json) names)
  in
  let requests = path [ "obs"; "counters"; "service.requests" ] in
  let batches = path [ "obs"; "counters"; "service.read_batches" ] in
  ( [
      ("service.queue_wait_p50_us", path [ "obs"; "latency_ns"; "queue_wait"; "p50" ] /. 1e3, "us");
      ("service.queue_wait_p99_us", path [ "obs"; "latency_ns"; "queue_wait"; "p99" ] /. 1e3, "us");
      ("service.reads_per_batch", requests /. batches, "count");
      ("obs.traced_overhead.read", (traced_p50 -. plain_p50) /. plain_p50, "ratio");
    ],
    int_of_float (path [ "maintain_fallbacks" ]) )

let run ~exe ~seed =
  let g = build_graph () in
  let maximize = maximize_layers ~g ~seed in
  let reads = read_layers ~m:(Serve.mirror_of g) ~epoch:(Service.Epoch.create g) ~seed in
  let mutate, fallbacks = mutate_layers ~g ~seed in
  let daemon, daemon_fallbacks = daemon_layers ~exe ~g ~seed in
  maximize @ reads @ mutate @ daemon
  @ [ ("service.fallbacks", float_of_int (fallbacks + daemon_fallbacks), "count") ]
