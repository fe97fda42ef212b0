open Graphcore
open Maxtruss

let test_timed_scores_against_original () =
  let g = Helpers.fig1 () in
  let o =
    Outcome.timed ~original:g ~k:4 (fun ~csr ~dec ->
        (* the thunk runs on the original's snapshot and decomposition *)
        Alcotest.(check int) "snapshot of the original" (Graph.num_edges g) (Csr.num_edges csr);
        Alcotest.(check int) "its decomposition" (Graph.num_edges g) (Truss.Decompose.num_edges dec);
        ([ (2, 7) ], false))
  in
  Alcotest.(check int) "verified score" 5 o.Outcome.score;
  Alcotest.(check bool) "not timed out" false o.Outcome.timed_out;
  Alcotest.(check bool) "time recorded" true (o.Outcome.time_s >= 0.0)

let test_timed_empty_plan () =
  let g = Helpers.fig1 () in
  let o = Outcome.timed ~original:g ~k:4 (fun ~csr:_ ~dec:_ -> ([], true)) in
  Alcotest.(check int) "zero score" 0 o.Outcome.score;
  Alcotest.(check bool) "timeout propagated" true o.Outcome.timed_out

let test_empty_value () =
  Alcotest.(check int) "empty outcome" 0 Outcome.empty.Outcome.score;
  Alcotest.(check (list (pair int int))) "no insertions" [] Outcome.empty.Outcome.inserted

let prop_convert_order_independent =
  (* The plan must be a function of the target as a set. *)
  QCheck2.Test.make ~name:"Convert is independent of target order" ~count:30
    QCheck2.Gen.(pair (Helpers.random_graph_gen ()) (int_range 0 1000))
    (fun (edges, seed) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:3 ~hi:4 in
      QCheck2.assume (comps <> []);
      let ctx = Score.make_ctx g ~k:4 in
      List.for_all
        (fun comp ->
          let rng = Rng.create seed in
          let shuffled = Array.of_list comp in
          Rng.shuffle rng shuffled;
          let a = Convert.convert ~ctx ~target:comp () in
          let b = Convert.convert ~ctx ~target:(Array.to_list shuffled) () in
          a.Convert.plan = b.Convert.plan)
        comps)

let prop_baselines_deterministic =
  QCheck2.Test.make ~name:"CBTM is deterministic" ~count:20 (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let a = Baselines.cbtm ~g ~k:4 ~budget:4 in
      let b = Baselines.cbtm ~g ~k:4 ~budget:4 in
      a.Outcome.inserted = b.Outcome.inserted && a.Outcome.score = b.Outcome.score)

let prop_rd_seed_deterministic =
  QCheck2.Test.make ~name:"RD is deterministic given the seed" ~count:20
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let a = Baselines.rd ~rng:(Rng.create 5) ~g ~k:4 ~budget:4 in
      let b = Baselines.rd ~rng:(Rng.create 5) ~g ~k:4 ~budget:4 in
      a.Outcome.inserted = b.Outcome.inserted)

let suite =
  [
    Alcotest.test_case "timed scores against original" `Quick test_timed_scores_against_original;
    Alcotest.test_case "timed empty plan" `Quick test_timed_empty_plan;
    Alcotest.test_case "empty value" `Quick test_empty_value;
    Helpers.qtest prop_convert_order_independent;
    Helpers.qtest prop_baselines_deterministic;
    Helpers.qtest prop_rd_seed_deterministic;
  ]
