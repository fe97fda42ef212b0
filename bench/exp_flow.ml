(* Warm-started parametric g-sweep vs per-probe rebuild (ROADMAP item 2).

   Builds the block DAGs of every (k-1)-class component of the kernel
   dataset (gowalla) and runs the full two-(w1,w2) sweep menu under both
   flow engines: [`Rebuild] constructs and solves one network from zero
   flow per probe (the pre-parametric behaviour), [`Parametric] builds one
   network per (dag, w1, w2) and warm-starts Dinic across probes.  The
   selections are asserted identical — the engines differ only in cost.

   Under --obs the parametric.* counters land in the exported metrics; the
   @bench-smoke alias runs this experiment with --assert-counter
   parametric.warm_probes to keep the warm path exercised in CI. *)

let dataset = "gowalla"

let w_pairs = [ (1, 1); (1, 10) ]

let build_dags g k =
  let dec = Truss.Decompose.run g in
  let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
  let ctx = Maxtruss.Score.make_ctx g ~k in
  List.map
    (fun comp ->
      let h = Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp in
      let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
      Maxtruss.Block_dag.build ~h ~dec ~k ~component:comp ~onion)
    comps

let sweep_all ~impl ~probes dags =
  List.concat_map
    (fun dag ->
      List.concat_map
        (fun (w1, w2) -> Maxtruss.Flow_plan.sweep ~impl ~dag ~w1 ~w2 ~probes ())
        w_pairs)
    dags

let run () =
  let g = Exp_common.dataset dataset in
  let k = Exp_common.default_k dataset in
  let dags = build_dags g k in
  let probes = 10 in
  let reps = Exp_common.pick ~quick:3 ~full:10 in
  Printf.printf "parametric vs rebuild g-sweep (%s, k=%d, %d DAGs, %d probes, %d reps):\n"
    dataset k (List.length dags) probes reps;
  let time_engine impl =
    let result = ref [] in
    let _, t =
      Exp_common.time (fun () ->
          for _ = 1 to reps do
            result := sweep_all ~impl ~probes dags
          done)
    in
    (!result, t.Exp_common.seconds)
  in
  let sel_rebuild, t_rebuild = time_engine `Rebuild in
  let sel_warm, t_warm = time_engine `Parametric in
  let fingerprint =
    List.map (fun (s : Maxtruss.Flow_plan.selection) ->
        (s.Maxtruss.Flow_plan.g_param, s.Maxtruss.Flow_plan.blocks,
         s.Maxtruss.Flow_plan.h_score, s.Maxtruss.Flow_plan.cut_value))
  in
  if fingerprint sel_rebuild <> fingerprint sel_warm then begin
    Printf.eprintf "flowsweep: parametric selections diverge from rebuild!\n";
    exit 1
  end;
  Printf.printf "%-24s %10s\n" "engine" "time";
  Printf.printf "%-24s %10s\n" "per-probe rebuild" (Exp_common.fmt_time t_rebuild);
  Printf.printf "%-24s %10s\n" "parametric warm-start" (Exp_common.fmt_time t_warm);
  Printf.printf "speedup: %.2fx (%d selections, bit-identical)\n"
    (t_rebuild /. Float.max 1e-9 t_warm)
    (List.length sel_warm);
  if Obs.enabled () then
    List.iter
      (fun (name, v) ->
        if String.length name >= 11 && String.sub name 0 11 = "parametric." then
          Printf.printf "  %-32s %d\n" name v)
      (Obs.counters ())
