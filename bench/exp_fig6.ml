(* Figure 6(a) — PCR's score and running time as the repetition count r of
   the random interpolation grows: score creeps up slowly, time grows
   roughly linearly (the paper fixes r = 10 for this reason).

   Figure 6(b) — size of the largest k-class component versus the size of
   its block DAG across k: |B| and |E_DAG| are far below |E_c| and shrink
   as k grows (deeper trusses are more cohesive, so more edges share onion
   layers). *)

let run_a () =
  Exp_common.header "Exp-II / Fig. 6(a): PCR vs repetitions r (syracuse56, b = 200)";
  let g = Exp_common.dataset "syracuse56" in
  let k = Exp_common.default_k "syracuse56" in
  let rs = Exp_common.pick ~quick:[ 1; 10; 50 ] ~full:[ 1; 10; 100; 1000 ] in
  let results =
    List.map
      (fun r ->
        let config =
          {
            (Maxtruss.Pcfr.default_config ~k ~budget:200) with
            Maxtruss.Pcfr.use_flow = false;
            repeats = r;
          }
        in
        (r, (Maxtruss.Pcfr.run config g).Maxtruss.Pcfr.outcome))
      rs
  in
  Exp_common.print_series ~x_label:"r"
    ~x_values:(List.map (fun (r, _) -> string_of_int r) results)
    ~columns:
      [
        ("score", List.map (fun (_, (o : Maxtruss.Outcome.t)) -> string_of_int o.score) results);
        ("time", List.map (fun (_, (o : Maxtruss.Outcome.t)) -> Exp_common.fmt_time o.time_s) results);
      ];
  print_newline ()

let run_b () =
  Exp_common.header "Exp-III / Fig. 6(b): DAG size vs k (syracuse56)";
  let g = Exp_common.dataset "syracuse56" in
  let dec = Truss.Decompose.run g in
  let ks = Exp_common.pick ~quick:[ 8; 10; 12; 14 ] ~full:[ 6; 8; 10; 12; 14; 16 ] in
  let rows =
    List.filter_map
      (fun k ->
        match Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k with
        | [] -> None
        | comp :: _ ->
          let ctx = Maxtruss.Score.make_ctx g ~k in
          let h =
            Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp
          in
          let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
          let dag = Maxtruss.Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          Some
            ( k,
              List.length comp,
              dag.Maxtruss.Block_dag.n_blocks,
              Array.length dag.Maxtruss.Block_dag.links ))
      ks
  in
  Exp_common.print_series ~x_label:"k"
    ~x_values:(List.map (fun (k, _, _, _) -> string_of_int k) rows)
    ~columns:
      [
        ("|E_c|", List.map (fun (_, e, _, _) -> string_of_int e) rows);
        ("|B|", List.map (fun (_, _, b, _) -> string_of_int b) rows);
        ("|E_DAG|", List.map (fun (_, _, _, l) -> string_of_int l) rows);
      ];
  print_newline ()
