open Graphcore

(* Figure 2 of the paper: component C1 of the 3-class peels towards the
   4-truss in two rounds — layer 1 = {(a,h),(f,h),(c,i),(f,i)},
   layer 2 = {(a,f),(c,f)}. *)
let fig1_onion () =
  let g = Helpers.fig1 () in
  let ctx = Maxtruss.Score.make_ctx g ~k:4 in
  let comp = Helpers.fig1_c1_edges in
  let h = Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp in
  (comp, Truss.Onion.peel ~h ~k:4 ~candidates:comp ())

let layer onion key = Hashtbl.find onion.Truss.Onion.layer key

let test_fig2_layers () =
  let _, onion = fig1_onion () in
  Alcotest.(check int) "max layer 2" 2 onion.Truss.Onion.max_layer;
  Alcotest.(check int) "(a,h) layer 1" 1 (layer onion (Edge_key.make 0 7));
  Alcotest.(check int) "(f,h) layer 1" 1 (layer onion (Edge_key.make 5 7));
  Alcotest.(check int) "(c,i) layer 1" 1 (layer onion (Edge_key.make 2 8));
  Alcotest.(check int) "(f,i) layer 1" 1 (layer onion (Edge_key.make 5 8));
  Alcotest.(check int) "(a,f) layer 2" 2 (layer onion (Edge_key.make 0 5));
  Alcotest.(check int) "(c,f) layer 2" 2 (layer onion (Edge_key.make 2 5))

let test_all_candidates_assigned () =
  let comp, onion = fig1_onion () in
  Alcotest.(check int) "every candidate got a layer" (List.length comp)
    (Hashtbl.length onion.Truss.Onion.layer)

let test_rounds_equal_max_layer () =
  let _, onion = fig1_onion () in
  Alcotest.(check int) "rounds" onion.Truss.Onion.max_layer onion.Truss.Onion.rounds

let test_build_h_contains_component_and_backdrop () =
  let g = Helpers.fig1 () in
  let ctx = Maxtruss.Score.make_ctx g ~k:4 in
  let comp = Helpers.fig1_c1_edges in
  let h = Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Alcotest.(check bool) "component edge in H" true (Graph.mem_edge h u v))
    comp;
  (* backdrop edges incident to component nodes: (a,c) = (0,2) qualifies *)
  Alcotest.(check bool) "incident backdrop edge in H" true (Graph.mem_edge h 0 2);
  (* K5 edge between two non-component nodes (3,4)=(d,e) must be excluded *)
  Alcotest.(check bool) "distant backdrop edge excluded" false (Graph.mem_edge h 3 4)

let test_clique_minus_matching_single_round () =
  (* K6 minus one edge: peeling towards 6-truss removes everything; the
     layering must be total and rounds >= 1. *)
  let g = Helpers.clique 6 in
  ignore (Graph.remove_edge g 0 1);
  let dec = Truss.Decompose.run g in
  let k = Truss.Decompose.kmax dec + 1 in
  let cands = Truss.Decompose.truss_edges dec 2 in
  let h = Graph.copy g in
  let onion = Truss.Onion.peel ~h ~k ~candidates:cands () in
  Alcotest.(check int) "all assigned" (List.length cands) (Hashtbl.length onion.Truss.Onion.layer)

let prop_layers_total_and_positive =
  QCheck2.Test.make ~name:"onion layers are total and start at 1" ~count:60
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      let cands =
        Hashtbl.fold (fun key () acc -> key :: acc)
          (let t = Hashtbl.create 16 in
           Truss.Decompose.iter dec (fun key tau -> if tau < k then Hashtbl.replace t key ());
           t)
          []
      in
      QCheck2.assume (cands <> []);
      let backdrop = Truss.Decompose.truss_edge_table dec k in
      let h = Truss.Onion.build_h ~g ~backdrop ~candidates:cands in
      let onion = Truss.Onion.peel ~h ~k ~candidates:cands () in
      Hashtbl.length onion.Truss.Onion.layer = List.length cands
      && Hashtbl.fold (fun _ l acc -> acc && l >= 1 && l <= onion.Truss.Onion.max_layer)
           onion.Truss.Onion.layer true)

let prop_layer1_edges_fragile =
  QCheck2.Test.make ~name:"layer-1 edges have support below k-2 in H" ~count:60
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      let cands = ref [] in
      Truss.Decompose.iter dec (fun key tau -> if tau < k then cands := key :: !cands);
      QCheck2.assume (!cands <> []);
      let backdrop = Truss.Decompose.truss_edge_table dec k in
      let h = Truss.Onion.build_h ~g ~backdrop ~candidates:!cands in
      let h_frozen = Graph.copy h in
      let onion = Truss.Onion.peel ~h ~k ~candidates:!cands () in
      Hashtbl.fold
        (fun key l acc ->
          if l = 1 then begin
            let u, v = Edge_key.endpoints key in
            acc && Graph.count_common_neighbors h_frozen u v < k - 2
          end
          else acc)
        onion.Truss.Onion.layer true)

let suite =
  [
    Alcotest.test_case "fig2 layers" `Quick test_fig2_layers;
    Alcotest.test_case "all candidates assigned" `Quick test_all_candidates_assigned;
    Alcotest.test_case "rounds equal max layer" `Quick test_rounds_equal_max_layer;
    Alcotest.test_case "build_h contents" `Quick test_build_h_contains_component_and_backdrop;
    Alcotest.test_case "near-clique peel total" `Quick test_clique_minus_matching_single_round;
    Helpers.qtest prop_layers_total_and_positive;
    Helpers.qtest prop_layer1_edges_fragile;
  ]
