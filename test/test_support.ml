open Graphcore

(* Support of [(u, v)] read off [Support.all_csr]. *)
let support_of g =
  let csr = Csr.of_graph g in
  let sup = Truss.Support.all_csr csr in
  fun u v -> sup.(Csr.edge_id csr u v)

let test_triangle () =
  let g = Helpers.triangle () in
  Alcotest.(check int) "each edge support 1" 1 (support_of g 0 1)

let test_clique () =
  let g = Helpers.clique 7 in
  Alcotest.(check int) "K7 edge support" 5 (support_of g 2 3)

let test_all_table () =
  let g = Helpers.fig1 () in
  let sup = Truss.Support.all_csr (Csr.of_graph g) in
  Alcotest.(check int) "one entry per edge" (Graph.num_edges g) (Array.length sup);
  let support_of = support_of g in
  (* c and d share the K5 neighbors a, b, e *)
  Alcotest.(check int) "K5 internal edge" 3 (support_of 2 3);
  Alcotest.(check int) "peripheral edge" 1 (support_of 0 7)

let test_sum () =
  let sum g = Array.fold_left ( + ) 0 (Truss.Support.all_csr (Csr.of_graph g)) in
  Alcotest.(check int) "triangle sum" 3 (sum (Helpers.triangle ()));
  Alcotest.(check int) "K4 sum" 12 (sum (Helpers.clique 4))

let prop_all_csr_matches_reference =
  QCheck2.Test.make ~name:"Support.all_csr agrees with Ref_truss.support" ~count:100
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let reference = Ref_truss.support g in
      let support_of = support_of g in
      let ok = ref true in
      Graph.iter_edges g (fun u v ->
          if Hashtbl.find reference (Edge_key.make u v) <> support_of u v then ok := false);
      !ok)

let suite =
  [
    Alcotest.test_case "triangle" `Quick test_triangle;
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "all table" `Quick test_all_table;
    Alcotest.test_case "sum" `Quick test_sum;
    Helpers.qtest prop_all_csr_matches_reference;
  ]
