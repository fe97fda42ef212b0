open Graphcore

(* The k-truss condition checked edge by edge: every edge of [g] has
   support at least [k - 2] in [g] itself. *)
let is_k_truss g ~k =
  let ok = ref true in
  Graph.iter_edges g (fun u v -> if Graph.count_common_neighbors g u v < k - 2 then ok := false);
  !ok

let test_clique () =
  let g = Helpers.clique 5 in
  Alcotest.(check int) "K5 5-truss" 10 (Truss.Truss_query.k_truss_size g ~k:5);
  Alcotest.(check int) "K5 6-truss empty" 0 (Truss.Truss_query.k_truss_size g ~k:6)

let test_fig1 () =
  let g = Helpers.fig1 () in
  Alcotest.(check int) "3-truss is whole graph" 22 (Truss.Truss_query.k_truss_size g ~k:3);
  Alcotest.(check int) "4-truss is K5" 10 (Truss.Truss_query.k_truss_size g ~k:4)

let test_k2_everything () =
  let g = Helpers.path 5 in
  Alcotest.(check int) "2-truss keeps all edges" 4 (Truss.Truss_query.k_truss_size g ~k:2)

(* The support check the extraction property relies on. *)
let test_is_k_truss () =
  Alcotest.(check bool) "K4 is a 4-truss" true (is_k_truss (Helpers.clique 4) ~k:4);
  Alcotest.(check bool) "K4 is not a 5-truss" false (is_k_truss (Helpers.clique 4) ~k:5)

let test_non_destructive () =
  let g = Helpers.fig1 () in
  ignore (Truss.Truss_query.k_truss_edges g ~k:4);
  Alcotest.(check int) "graph untouched" 22 (Graph.num_edges g)

(* The CSR engine's k-truss against the hashtable fixed-k cascade oracle,
   at every level up to one past kmax. *)
let prop_matches_decompose =
  QCheck2.Test.make ~name:"k_truss_edges equals {e | tau(e) >= k}" ~count:80
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let ok = ref true in
      for k = 2 to Truss.Decompose.kmax dec + 1 do
        let direct = Truss.Truss_query.k_truss_edges g ~k in
        let expected = Ref_truss.k_truss_edges g ~k in
        if Hashtbl.length direct <> Hashtbl.length expected then ok := false;
        Hashtbl.iter (fun key () -> if not (Hashtbl.mem direct key) then ok := false) expected
      done;
      !ok)

let prop_result_is_truss =
  QCheck2.Test.make ~name:"extracted k-truss satisfies the support bound" ~count:80
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let t = Truss.Truss_query.k_truss_edges g ~k:4 in
      is_k_truss (Graph.of_edge_keys (Hashtbl.fold (fun key () acc -> key :: acc) t [])) ~k:4)

let suite =
  [
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "fig1" `Quick test_fig1;
    Alcotest.test_case "k=2 keeps everything" `Quick test_k2_everything;
    Alcotest.test_case "is_k_truss" `Quick test_is_k_truss;
    Alcotest.test_case "non destructive" `Quick test_non_destructive;
    Helpers.qtest prop_matches_decompose;
    Helpers.qtest prop_result_is_truss;
  ]
