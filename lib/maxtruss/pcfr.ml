open Graphcore

let log = Logs.Src.create "maxtruss.pcfr" ~doc:"PCFR framework"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  k : int;
  budget : int;
  repeats : int;
  w_pairs : (int * int) list;
  g_probes : int;
  use_random : bool;
  use_flow : bool;
  max_h : int;
  seed : int;
  min_level_budget : int;
      (** do not descend to the next (k-h) level for less remaining budget
          than this — processing a whole level for a couple of leftover
          edges costs far more than it can return *)
}

let default_config ~k ~budget =
  {
    k;
    budget;
    repeats = 10;
    w_pairs = [ (1, 1); (1, 10) ];
    g_probes = 10;
    use_random = true;
    use_flow = true;
    (* The paper's experiments never needed to descend past h = 2; deeper
       levels sweep enormous low-trussness classes for vanishing returns,
       so the default stops at 3.  Raise max_h for extreme budgets. *)
    max_h = max 1 (min 3 (k - 2));
    seed = 42;
    min_level_budget = 4;
  }

type level_stat = { h : int; components : int; plans : int; inserted : int; gain : int }

let c_plans_generated = Obs.Counter.make "pcfr.plans_generated"

let c_plans_kept = Obs.Counter.make "pcfr.plans_kept"

let c_plans_discarded = Obs.Counter.make "pcfr.plans_discarded"

let c_edges_committed = Obs.Counter.make "pcfr.edges_committed"

type result = { outcome : Outcome.t; levels : level_stat list }

(* The onion and the DAG run on the local context's frame, where the
   conversion subgraph h = T_k ∪ E_c of {!Truss.Onion.build_h} is exactly
   the frame edges that are component edges or in T_k. *)
let component_dag ~lctx ~dec ~component =
  let csr = Score.frame_csr lctx in
  let component = Array.of_list component in
  let eids = Array.map (Score.frame_edge_id lctx) component in
  let in_h = Array.init (Csr.num_edges csr) (Score.in_truss lctx) in
  Array.iter (fun e -> in_h.(e) <- true) eids;
  let onion = Truss.Onion.peel_snapshot ~csr ~in_h ~k:lctx.Score.k ~candidates:eids in
  (onion, Block_dag.of_snapshot ~csr ~in_h ~dec ~component ~eids ~onion)

(* Per-component flow-network scaffolding: onion peel, block DAG, min-cut
   sweeps, dedup + cap.  Reads [lctx] and [dec] without ever writing them
   and builds only fresh per-call structures, so independent components can
   run this concurrently. *)
let flow_selections ~lctx ~dec ~config ~component =
  let _, dag = component_dag ~lctx ~dec ~component in
  (* Different (w1, w2) settings frequently rediscover the same anchored
     block set; convert each distinct target only once. *)
  let seen = Hashtbl.create 16 in
  let selections =
    List.concat_map
      (fun (w1, w2) ->
        List.filter
          (fun sel ->
            let signature = String.concat "," (List.map string_of_int sel.Flow_plan.blocks) in
            if Hashtbl.mem seen signature then false
            else begin
              Hashtbl.replace seen signature ();
              true
            end)
          (Flow_plan.sweep ~dag ~w1 ~w2 ~probes:config.g_probes ()))
      config.w_pairs
  in
  (* Conversion dominates the cost; convert at most ~1.5x g_probes
     selections per component, spread evenly over the score range so the
     menu keeps plans of every granularity. *)
  let selections =
    let cap = max 4 (3 * config.g_probes / 2) in
    let n = List.length selections in
    if n <= cap then selections
    else begin
      let arr =
        Array.of_list
          (List.sort (fun a b -> Int.compare b.Flow_plan.h_score a.Flow_plan.h_score) selections)
      in
      List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1)))
    end
  in
  (dag, selections)

(* Conversion + scoring of the sweep selections.  Reads [ctx] and [lctx]
   and writes neither: conversion works on its own subgraph, and scoring
   runs on the local context's frozen frame. *)
let convert_selections ~ctx ~lctx ~budget (dag, selections) =
  List.filter_map
    (fun sel ->
      let target = Block_dag.edges_of_blocks dag sel.Flow_plan.blocks in
      if target = [] then None
      else begin
        let conv = Convert.convert ~ctx ~target () in
        let cost = List.length conv.Convert.plan in
        if cost = 0 || cost > budget then None
        else begin
          (* Component-local scoring: a lower bound that is exact when
             components are independent; orders of magnitude cheaper than
             scoring each plan against the whole graph. *)
          let score = Score.score lctx conv.Convert.plan in
          if score <= 0 then None
          else Some (Plan.make ~inserted:(Score.keys_of_pairs conv.Convert.plan) ~score)
        end
      end)
    selections

(* The Phase-I menus of a level's components, in component order: random
   and min-cut plans, scored on each component's local frame and
   normalized.  Two passes, so that components parallelize without
   sharing the rng:
   - in parallel, reading [ctx] and [dec] only: each component's local
     scoring context and flow-network scaffolding (onion peel, block DAG,
     min-cut sweeps);
   - on the calling domain, in component order: the random interpolation,
     which draws from the one rng stream, then conversion and scoring. *)
let level_menus ~rng ~ctx ~dec ~config ~budget components =
  let scaffolds =
    Par.parallel_map
      (fun component ->
        Obs.Span.with_ "pcfr.component" @@ fun () ->
        let lctx = Score.local_ctx ctx ~component in
        let flow =
          if config.use_flow then Some (flow_selections ~lctx ~dec ~config ~component) else None
        in
        (lctx, flow))
      components
  in
  Array.mapi
    (fun i (lctx, flow) ->
      let component = components.(i) in
      let random_pairs =
        if config.use_random then
          Random_interp.interpolate ~rng ~ctx:lctx ~component ~budget ~repeats:config.repeats
            ~forbidden:ctx.Score.g ()
        else []
      in
      let flow_plans =
        match flow with None -> [] | Some sc -> convert_selections ~ctx ~lctx ~budget sc
      in
      Plan.normalize (random_pairs @ flow_plans))
    scaffolds

let component_revenue ~rng ~ctx ~dec ~config ~budget ~component =
  (level_menus ~rng ~ctx ~dec ~config ~budget [| component |]).(0)

let run config g =
  Obs.Span.with_
    ~args:[ ("k", string_of_int config.k); ("budget", string_of_int config.budget) ]
    "pcfr.run"
  @@ fun () ->
  let k = config.k in
  let rng = Rng.create config.seed in
  let start = Unix.gettimeofday () in
  (* Level 1 reads [g] itself.  Committed insertions wait in [pending]
     until a later level needs them; that level copies [g] once and adds
     them in commit order, so a run that ends at level 1 copies nothing and
     [g] is never written. *)
  let gw = ref g and pending = ref [] in
  let level_graph () =
    if !pending <> [] then begin
      if !gw == g then gw := Obs.Span.with_ "graph.copy" (fun () -> Graph.copy g);
      List.iter (fun (u, v) -> ignore (Graph.add_edge !gw u v)) !pending;
      pending := []
    end;
    !gw
  in
  (* The snapshot and decomposition of [g] itself — the first level's,
     taken before any insertion — double as the verification oracle's
     baseline. *)
  let g_snapshot = ref None in
  let levels = ref [] in
  let total_inserted = ref [] in
  let remaining = ref config.budget in
  let h = ref 1 in
  let continue = ref true in
  while
    !continue
    && (!remaining > 0 && (!h = 1 || !remaining >= config.min_level_budget))
    && k - !h >= 2
    && !h <= config.max_h
  do
    Obs.Span.with_ ~args:[ ("h", string_of_int !h) ] "pcfr.level" @@ fun () ->
    let gw = level_graph () in
    let csr = Csr.of_graph gw in
    let dec = Truss.Decompose.of_csr csr in
    if !total_inserted = [] then g_snapshot := Some (csr, dec);
    let comps = Truss.Connectivity.components ~g:gw ~dec ~lo:(k - !h) ~hi:k in
    Log.debug (fun m ->
        m "level h=%d: %d components over classes [%d, %d), budget left %d" !h
          (List.length comps) (k - !h) k !remaining);
    if comps = [] then begin
      if !h >= config.max_h then continue := false else incr h
    end
    else begin
      let ctx = Score.ctx_of_dec gw csr dec ~k in
      (* PCFR proper only randomizes on the (k-1)-class; PCR (flow
         disabled) randomizes at every depth. *)
      let level_config =
        if !h > 1 && config.use_flow then { config with use_random = false } else config
      in
      let revenues =
        level_menus ~rng ~ctx ~dec ~config:level_config ~budget:!remaining
          (Array.of_list comps)
      in
      let plan_count = Array.fold_left (fun acc r -> acc + List.length r) 0 revenues in
      Obs.Counter.add c_plans_generated plan_count;
      let alloc = Dp.solve ~revenues ~budget:!remaining in
      Obs.Counter.add c_plans_kept (List.length alloc.Dp.chosen);
      Obs.Counter.add c_plans_discarded (plan_count - List.length alloc.Dp.chosen);
      let chosen_edges =
        List.concat_map (fun (_, (p : Plan.pair)) -> p.inserted) alloc.Dp.chosen
        |> List.sort_uniq Edge_key.compare
      in
      let new_edges =
        List.filter (fun key -> not (Graph.mem_edge_key gw key)) chosen_edges
      in
      let new_edges =
        (* Deduplication can only shrink the DP's budget usage, but guard
           the invariant |A| <= b anyway. *)
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        take !remaining new_edges
      in
      if new_edges = [] then begin
        if !h >= config.max_h then continue := false else incr h
      end
      else begin
        let as_pairs = Score.pairs_of_keys new_edges in
        let gain = Score.score ctx as_pairs in
        Log.info (fun m ->
            m "level h=%d: committing %d edges for a verified gain of %d" !h
              (List.length new_edges) gain);
        Obs.Counter.add c_edges_committed (List.length new_edges);
        pending := !pending @ as_pairs;
        total_inserted := as_pairs @ !total_inserted;
        remaining := !remaining - List.length new_edges;
        levels :=
          {
            h = !h;
            components = List.length comps;
            plans = plan_count;
            inserted = List.length new_edges;
            gain;
          }
          :: !levels;
        if !h >= config.max_h then continue := false else incr h
      end
    end
  done;
  let inserted = List.rev !total_inserted in
  let time_s = Unix.gettimeofday () -. start in
  let score = Score.evaluate_oracle ?snapshot:!g_snapshot g ~k ~inserted in
  {
    outcome = { Outcome.inserted; score; time_s; timed_out = false };
    levels = List.rev !levels;
  }

let with_g_probes config = function
  | None -> config
  | Some p ->
    if p < 1 then invalid_arg "Pcfr: g_probes must be positive";
    { config with g_probes = p }

let pcfr ?(seed = 42) ?g_probes ~g ~k ~budget () =
  run (with_g_probes { (default_config ~k ~budget) with seed } g_probes) g

let pcf ?(seed = 42) ?g_probes ~g ~k ~budget () =
  run (with_g_probes { (default_config ~k ~budget) with seed; use_random = false } g_probes) g

let pcr ?(seed = 42) ?g_probes ~g ~k ~budget () =
  run (with_g_probes { (default_config ~k ~budget) with seed; use_flow = false } g_probes) g
