open Graphcore
open Maxtruss

let test_g_zero_anchors_all () =
  let dag = Helpers.fig1_dag () in
  let sel = Flow_plan.min_cut_selection ~dag ~w1:1 ~w2:1 ~g:0 in
  Alcotest.(check int) "everything anchored" 6 sel.Flow_plan.h_score;
  Alcotest.(check int) "all blocks" 3 (List.length sel.Flow_plan.blocks)

let test_g_max_anchors_none () =
  let dag = Helpers.fig1_dag () in
  let gmax = Flow_plan.g_max ~dag ~w1:1 ~w2:1 in
  let sel = Flow_plan.min_cut_selection ~dag ~w1:1 ~w2:1 ~g:gmax in
  Alcotest.(check int) "nothing anchored" 0 sel.Flow_plan.h_score

let test_lemma1_monotone () =
  let dag = Helpers.fig1_dag () in
  let gmax = Flow_plan.g_max ~dag ~w1:1 ~w2:1 in
  let prev = ref max_int in
  for g = 0 to gmax do
    let sel = Flow_plan.min_cut_selection ~dag ~w1:1 ~w2:1 ~g in
    if sel.Flow_plan.h_score > !prev then
      Alcotest.failf "h(g) increased at g=%d: %d > %d" g sel.Flow_plan.h_score !prev;
    prev := sel.Flow_plan.h_score
  done

let test_sweep_distinct_and_sorted () =
  let dag = Helpers.fig1_dag () in
  let sels = Flow_plan.sweep ~dag ~w1:1 ~w2:1 ~probes:10 () in
  Alcotest.(check bool) "at least two plans" true (List.length sels >= 2);
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "descending h" true (a.Flow_plan.h_score >= b.Flow_plan.h_score);
      check_sorted rest
    | _ -> ()
  in
  check_sorted sels;
  let sigs = List.map (fun s -> s.Flow_plan.blocks) sels in
  Alcotest.(check int) "distinct selections" (List.length sigs)
    (List.length (List.sort_uniq compare sigs))

let test_sweep_includes_leaf_drop_variant () =
  let dag = Helpers.fig1_dag () in
  let sels = Flow_plan.sweep ~dag ~w1:1 ~w2:1 ~probes:10 () in
  (* the h=4 "anchor all but one leaf" plan of Fig. 1(c) must appear *)
  Alcotest.(check bool) "h=4 variant present" true
    (List.exists (fun s -> s.Flow_plan.h_score = 4) sels)

let test_sweep_empty_dag () =
  let g = Helpers.clique 4 in
  let dec = Truss.Decompose.run g in
  let ctx = Score.make_ctx g ~k:4 in
  let onion = Truss.Onion.peel ~h:g ~k:6 ~candidates:[] () in
  let dag = Block_dag.build ~h:g ~dec ~k:6 ~component:[] ~onion in
  ignore ctx;
  Alcotest.(check (list int)) "no plans on empty dag" []
    (List.map (fun s -> s.Flow_plan.h_score) (Flow_plan.sweep ~dag ~w1:1 ~w2:1 ~probes:5 ()))

let prop_lemma1_random =
  QCheck2.Test.make ~name:"h(g) non-increasing on random components (Lemma 1)" ~count:40
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      QCheck2.assume (comps <> []);
      let ctx = Score.make_ctx g ~k in
      List.for_all
        (fun comp ->
          let h = Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:comp in
          let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
          let dag = Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          let gmax = Flow_plan.g_max ~dag ~w1:1 ~w2:1 in
          let prev = ref max_int in
          let ok = ref true in
          let probes = [ 0; gmax / 4; gmax / 2; 3 * gmax / 4; gmax ] in
          List.iter
            (fun gv ->
              let sel = Flow_plan.min_cut_selection ~dag ~w1:1 ~w2:1 ~g:gv in
              if sel.Flow_plan.h_score > !prev then ok := false;
              prev := sel.Flow_plan.h_score)
            (List.sort_uniq compare probes);
          !ok)
        comps)

let prop_h_score_consistent =
  QCheck2.Test.make ~name:"h_score equals sum of anchored block sizes" ~count:40
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      QCheck2.assume (comps <> []);
      let ctx = Score.make_ctx g ~k in
      List.for_all
        (fun comp ->
          let h = Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:comp in
          let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
          let dag = Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          List.for_all
            (fun sel ->
              sel.Flow_plan.h_score
              = List.fold_left (fun acc b -> acc + Block_dag.size dag b) 0 sel.Flow_plan.blocks)
            (Flow_plan.sweep ~dag ~w1:1 ~w2:1 ~probes:8 ()))
        comps)

(* Run [f] under [n] domains, restoring the previous level afterwards. *)
let with_domains n f =
  let saved = Par.domains () in
  Par.set_domains n;
  Fun.protect ~finally:(fun () -> Par.set_domains saved) f

let selection_fingerprint (s : Flow_plan.selection) =
  (s.Flow_plan.g_param, s.Flow_plan.blocks, s.Flow_plan.h_score, s.Flow_plan.cut_value)

(* Warm-vs-cold equivalence: the parametric-engine sweep must return
   exactly the selections of a from-scratch per-probe rebuild — same
   values, same order — on random block DAGs at both (w1, w2) settings of
   the paper, and identically under a 1- and a 4-domain pool (the sweeps
   run inside the pool's tasks, as PCFR issues them). *)
let prop_parametric_sweep_matches_rebuild =
  QCheck2.Test.make ~name:"parametric sweep equals per-probe rebuild (1 and 4 domains)"
    ~count:30
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      QCheck2.assume (comps <> []);
      let ctx = Score.make_ctx g ~k in
      let dags =
        Array.of_list
          (List.map
             (fun comp ->
               let h =
                 Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:comp
               in
               let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
               Block_dag.build ~h ~dec ~k ~component:comp ~onion)
             comps)
      in
      let sweep_all impl =
        Par.parallel_map
          (fun dag ->
            List.concat_map
              (fun (w1, w2) ->
                List.map selection_fingerprint
                  (Flow_plan.sweep ~impl ~dag ~w1 ~w2 ~probes:8 ()))
              [ (1, 1); (1, 10) ])
          dags
      in
      List.for_all
        (fun domains ->
          with_domains domains @@ fun () -> sweep_all `Parametric = sweep_all `Rebuild)
        [ 1; 4 ])

let suite =
  [
    Alcotest.test_case "g=0 anchors all" `Quick test_g_zero_anchors_all;
    Alcotest.test_case "g=gmax anchors none" `Quick test_g_max_anchors_none;
    Alcotest.test_case "Lemma 1 monotone" `Quick test_lemma1_monotone;
    Alcotest.test_case "sweep distinct and sorted" `Quick test_sweep_distinct_and_sorted;
    Alcotest.test_case "leaf-drop variant found" `Quick test_sweep_includes_leaf_drop_variant;
    Alcotest.test_case "empty dag" `Quick test_sweep_empty_dag;
    Helpers.qtest prop_lemma1_random;
    Helpers.qtest prop_h_score_consistent;
    Helpers.qtest prop_parametric_sweep_matches_rebuild;
  ]
