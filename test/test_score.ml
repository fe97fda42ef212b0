open Graphcore
open Maxtruss

let test_ctx_baseline () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  Alcotest.(check int) "baseline 4-truss is K5" 10 (Hashtbl.length ctx.Score.old_truss)

let test_score_fig1 () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  Alcotest.(check int) "partial plan scores 5" 5 (Score.score ctx [ (2, 7) ]);
  Alcotest.(check int) "full plan scores 8" 8 (Score.score ctx [ (2, 7); (0, 8) ]);
  Alcotest.(check int) "both components score 10" 10 (Score.score ctx [ (2, 7); (3, 9) ])

let test_oracle_agrees () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  List.iter
    (fun plan ->
      Alcotest.(check int) "incremental vs oracle" (Score.evaluate_oracle g ~k:4 ~inserted:plan)
        (Score.score ctx plan))
    [ []; [ (2, 7) ]; [ (2, 7); (0, 8) ]; [ (2, 7); (3, 9) ]; [ (7, 8) ] ]

let test_local_ctx_scores_component_plans () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  let lctx = Score.local_ctx ctx ~component:Helpers.fig1_c1_edges in
  Alcotest.(check int) "local partial" 5 (Score.score lctx [ (2, 7) ]);
  Alcotest.(check int) "local full" 8 (Score.score lctx [ (2, 7); (0, 8) ])

let test_local_ctx_preserves_graph () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  ignore (Score.local_ctx ctx ~component:Helpers.fig1_c1_edges);
  Alcotest.(check int) "global graph untouched" 22 (Graph.num_edges g)

let test_key_conversions () =
  let keys = [ Edge_key.make 3 1; Edge_key.make 2 9 ] in
  Alcotest.(check (list (pair int int))) "keys to pairs" [ (1, 3); (2, 9) ]
    (Score.pairs_of_keys keys);
  Alcotest.(check bool) "roundtrip" true
    (Score.keys_of_pairs (Score.pairs_of_keys keys) = keys)

let prop_score_matches_oracle =
  QCheck2.Test.make ~name:"ctx score equals oracle on random plans" ~count:80
    QCheck2.Gen.(
      pair (Helpers.random_graph_gen ())
        (list_size (int_range 0 5) (pair (int_range 0 12) (int_range 0 12))))
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let plan = List.filter (fun (u, v) -> u <> v) extra in
      let ctx = Score.make_ctx g ~k:4 in
      Score.score ctx plan = Score.evaluate_oracle g ~k:4 ~inserted:plan)

let prop_local_le_global =
  QCheck2.Test.make ~name:"local component score never exceeds global score" ~count:50
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
          let lctx = Score.local_ctx ctx ~component:comp in
          let pool = Candidate.pool ~g:lctx.Score.g ~component:comp ~forbidden:g () in
          Array.for_all
            (fun key ->
              let plan = [ Edge_key.endpoints key ] in
              Score.score lctx plan <= Score.score ctx plan)
            pool)
        comps)

(* A random graph, a random plan whose ids run past the graph's largest
   node, and k in {3, 4, 5}. *)
let plan_gen =
  QCheck2.Gen.(
    let* edges = Helpers.random_graph_gen () in
    let* extra = list_size (int_range 0 6) (pair (int_range 0 14) (int_range 0 14)) in
    let* k = int_range 3 5 in
    return (edges, extra, k))

(* The random pairs plus every input the scorer must tolerate: a duplicate
   of the first pair, a pair already in the graph (reversed) and a
   self-loop. *)
let awkward_plan edges extra =
  extra
  @ (match extra with p :: _ -> [ p ] | [] -> [])
  @ (match edges with (u, v) :: _ -> [ (v, u) ] | [] -> [])
  @ [ (2, 2) ]

(* k-truss edges of G ∪ P that are not in T_k(G), by the naive cascade;
   [backdrop] edges are never peeled. *)
let reference_promoted ?backdrop g ~k plan =
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g' u v)) plan;
  let old = Ref_truss.k_truss_edges ?backdrop g ~k in
  Hashtbl.fold
    (fun key () acc -> if Hashtbl.mem old key then acc else key :: acc)
    (Ref_truss.k_truss_edges ?backdrop g' ~k) []
  |> List.sort compare

let prop_frames_match_references =
  QCheck2.Test.make ~name:"frame scores equal both references" ~count:150 plan_gen
    (fun (edges, extra, k) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let plan = awkward_plan edges extra in
      let promoted ctx = List.sort compare (Score.evaluate ctx plan).Truss.Maintain.promoted in
      let ctx = Score.make_ctx g ~k in
      promoted ctx = reference_promoted g ~k plan
      && List.for_all
           (fun component ->
             (* the naive cascade on the component's graph, with the
                component's share of T_k(G) as backdrop *)
             let lctx = Score.local_ctx ctx ~component in
             let backdrop = Hashtbl.create 16 in
             Hashtbl.iter
               (fun key () ->
                 if Graph.mem_edge_key lctx.Score.g key then Hashtbl.replace backdrop key ())
               ctx.Score.old_truss;
             promoted lctx = reference_promoted ~backdrop lctx.Score.g ~k plan)
           (Truss.Connectivity.components ~g ~dec:(Truss.Decompose.run g) ~lo:(k - 1) ~hi:k))

let prop_oracle_snapshot_agrees =
  QCheck2.Test.make ~name:"oracle with and without the level-1 snapshot agree" ~count:100
    plan_gen
    (fun (edges, extra, k) ->
      let g = Graph.of_edges edges in
      let inserted = awkward_plan edges extra in
      let csr = Csr.of_graph g in
      let snapshot = (csr, Truss.Decompose.of_csr csr) in
      let with_snapshot = Score.evaluate_oracle ~snapshot g ~k ~inserted in
      with_snapshot = Score.evaluate_oracle g ~k ~inserted
      && with_snapshot = List.length (reference_promoted g ~k inserted))

let suite =
  [
    Alcotest.test_case "ctx baseline" `Quick test_ctx_baseline;
    Alcotest.test_case "fig1 scores" `Quick test_score_fig1;
    Alcotest.test_case "oracle agrees" `Quick test_oracle_agrees;
    Alcotest.test_case "local ctx scores" `Quick test_local_ctx_scores_component_plans;
    Alcotest.test_case "local ctx preserves graph" `Quick test_local_ctx_preserves_graph;
    Alcotest.test_case "key conversions" `Quick test_key_conversions;
    Helpers.qtest prop_score_matches_oracle;
    Helpers.qtest prop_local_le_global;
    Helpers.qtest prop_frames_match_references;
    Helpers.qtest prop_oracle_snapshot_agrees;
  ]
