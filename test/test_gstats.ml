open Graphcore

let test_triangle_count () =
  let s = Gstats.compute (Helpers.triangle ()) in
  Alcotest.(check int) "one triangle" 1 s.Gstats.triangles;
  let s4 = Gstats.compute (Helpers.clique 4) in
  Alcotest.(check int) "K4 has 4 triangles" 4 s4.Gstats.triangles;
  let s5 = Gstats.compute (Helpers.clique 5) in
  Alcotest.(check int) "K5 has 10 triangles" 10 s5.Gstats.triangles

let test_path_no_triangles () =
  let s = Gstats.compute (Helpers.path 6) in
  Alcotest.(check int) "path triangle-free" 0 s.Gstats.triangles;
  Alcotest.(check (float 0.001)) "zero clustering" 0.0 s.Gstats.global_clustering

let test_clique_clustering () =
  let s = Gstats.compute (Helpers.clique 6) in
  Alcotest.(check (float 0.001)) "clique clustering 1" 1.0 s.Gstats.global_clustering

let test_max_degree () =
  let g = Graph.of_edges [ (0, 1); (0, 2); (0, 3); (4, 5) ] in
  let s = Gstats.compute g in
  Alcotest.(check int) "max degree" 3 s.Gstats.max_degree

let test_connected_components () =
  let g = Graph.of_edges [ (0, 1); (1, 2); (5, 6); (8, 9); (9, 10); (10, 8) ] in
  let comps = Gstats.connected_components g in
  let sizes = Array.to_list comps |> List.map List.length |> List.sort compare in
  Alcotest.(check (list int)) "component sizes" [ 2; 3; 3 ] sizes

let test_largest_component () =
  let g = Graph.of_edges [ (0, 1); (2, 3); (3, 4); (4, 5) ] in
  Alcotest.(check int) "largest size" 4 (List.length (Gstats.largest_component g))

let test_empty_graph () =
  let s = Gstats.compute (Graph.create ()) in
  Alcotest.(check int) "no nodes" 0 s.Gstats.nodes;
  Alcotest.(check (float 0.001)) "avg degree 0" 0.0 s.Gstats.avg_degree

let prop_triangles_vs_support =
  QCheck2.Test.make ~name:"3 * triangles equals support sum" ~count:100
    (Helpers.random_graph_gen ())
    (fun edges ->
      let g = Graph.of_edges edges in
      3 * (Gstats.compute g).Gstats.triangles
      = Hashtbl.fold (fun _ s acc -> acc + s) (Ref_truss.support g) 0)

let prop_components_partition =
  QCheck2.Test.make ~name:"connected components partition the nodes" ~count:100
    (Helpers.random_graph_gen ())
    (fun edges ->
      let g = Graph.of_edges edges in
      let comps = Gstats.connected_components g in
      let all = Array.to_list comps |> List.concat |> List.sort compare in
      let nodes = ref [] in
      Graph.iter_nodes g (fun v -> nodes := v :: !nodes);
      all = List.sort compare !nodes)

let suite =
  [
    Alcotest.test_case "triangle counts" `Quick test_triangle_count;
    Alcotest.test_case "path has no triangles" `Quick test_path_no_triangles;
    Alcotest.test_case "clique clustering" `Quick test_clique_clustering;
    Alcotest.test_case "max degree" `Quick test_max_degree;
    Alcotest.test_case "connected components" `Quick test_connected_components;
    Alcotest.test_case "largest component" `Quick test_largest_component;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Helpers.qtest prop_triangles_vs_support;
    Helpers.qtest prop_components_partition;
  ]
