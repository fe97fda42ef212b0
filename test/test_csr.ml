(* CSR snapshot kernels vs. the hashtable reference engines of Ref_truss.

   The contract is exact agreement: per-edge support, full trussness map +
   kmax, and onion layer assignment must be identical between the library's
   CSR kernels and the oracles on every seed of every random family. *)

open Graphcore

(* ~30 deterministic random graphs: ER / BA / planted-clique, 10 seeds each. *)
let families =
  [
    ("er", fun seed -> Gen.erdos_renyi ~rng:(Rng.create seed) ~n:40 ~m:160);
    ("ba", fun seed -> Gen.barabasi_albert ~rng:(Rng.create (seed + 500)) ~n:45 ~m:4);
    ( "planted",
      fun seed ->
        let rng = Rng.create (seed + 900) in
        let base = Gen.erdos_renyi ~rng ~n:50 ~m:60 in
        Gen.with_communities ~rng ~base ~communities:4 ~size_min:5 ~size_max:9 ~drop:0.3 );
  ]

let seeds = List.init 10 (fun i -> i)

let iter_cases f =
  List.iter (fun (fam, build) -> List.iter (fun seed -> f fam seed (build seed)) seeds) families

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* --- structural unit tests ------------------------------------------------ *)

let test_structure () =
  let g = Helpers.fig1 () in
  let csr = Csr.of_graph g in
  Alcotest.(check int) "num_edges" (Graph.num_edges g) (Csr.num_edges csr);
  Alcotest.(check int) "num_nodes" (Graph.num_nodes g) (Csr.num_nodes csr);
  Alcotest.(check int) "max_node_id" (Graph.max_node_id g) (Csr.max_node_id csr);
  Graph.iter_nodes g (fun v ->
      Alcotest.(check int) "degree" (Graph.degree g v) (Csr.degree csr v));
  (* neighbor runs are sorted ascending *)
  Graph.iter_nodes g (fun v ->
      let prev = ref (-1) in
      Csr.iter_neighbors csr v (fun w ->
          Alcotest.(check bool) "sorted run" true (w > !prev);
          prev := w))

let test_mem_edge () =
  let g = Helpers.fig1 () in
  let csr = Csr.of_graph g in
  let n = Graph.max_node_id g in
  for u = 0 to n do
    for v = 0 to n do
      Alcotest.(check bool)
        (Printf.sprintf "mem_edge %d %d" u v)
        (Graph.mem_edge g u v) (Csr.mem_edge csr u v)
    done
  done;
  Alcotest.(check bool) "out of range" false (Csr.mem_edge csr (-1) 3);
  Alcotest.(check bool) "out of range" false (Csr.mem_edge csr 3 (n + 5))

let test_edge_ids () =
  let g = Helpers.fig1 () in
  let csr = Csr.of_graph g in
  let m = Csr.num_edges csr in
  (* edge_id / edge_endpoints are inverse bijections *)
  let seen = Array.make m false in
  Graph.iter_edges g (fun u v ->
      let e = Csr.edge_id csr u v in
      Alcotest.(check bool) "id in range" true (e >= 0 && e < m);
      Alcotest.(check bool) "id fresh" false seen.(e);
      seen.(e) <- true;
      Alcotest.(check (pair int int)) "endpoints roundtrip" (min u v, max u v)
        (Csr.edge_endpoints csr e);
      Alcotest.(check int) "edge_key" (Edge_key.make u v) (Csr.edge_key csr e));
  Alcotest.(check int) "absent edge" (-1) (Csr.edge_id csr 3 7);
  (* iter_neighbors_eid reports the id of the undirected edge from both sides *)
  Graph.iter_nodes g (fun u ->
      Csr.iter_neighbors_eid csr u (fun v e ->
          Alcotest.(check int) "eid symmetric" (Csr.edge_id csr u v) e))

let test_empty () =
  let csr = Csr.of_graph (Graph.create ()) in
  Alcotest.(check int) "no edges" 0 (Csr.num_edges csr);
  Alcotest.(check int) "no triangles" 0 (Csr.triangle_count csr);
  Alcotest.(check bool) "no edge" false (Csr.mem_edge csr 0 1)

let test_common_neighbors_fig1 () =
  let g = Helpers.fig1 () in
  let csr = Csr.of_graph g in
  let n = Graph.max_node_id g in
  for u = 0 to n do
    for v = 0 to n do
      if u <> v then
        Alcotest.(check int)
          (Printf.sprintf "common %d %d" u v)
          (Graph.count_common_neighbors g u v)
          (Csr.count_common_neighbors csr u v)
    done
  done

let test_gallop_skewed () =
  (* One hub adjacent to everyone forces the galloping path (degree ratio
     beyond the skew threshold). *)
  let g = Graph.create () in
  for v = 1 to 200 do
    ignore (Graph.add_edge g 0 v)
  done;
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 5 199);
  let csr = Csr.of_graph g in
  Alcotest.(check int) "hub vs leaf" (Graph.count_common_neighbors g 0 1)
    (Csr.count_common_neighbors csr 0 1);
  Alcotest.(check int) "leaf vs leaf" (Graph.count_common_neighbors g 1 2)
    (Csr.count_common_neighbors csr 1 2);
  Alcotest.(check int) "triangles" 2 (Csr.triangle_count csr)

let test_triangle_count_matches_support_sum () =
  iter_cases (fun fam seed g ->
      let csr = Csr.of_graph g in
      let sup = Ref_truss.support g in
      let sum3 = Hashtbl.fold (fun _ s acc -> acc + s) sup 0 in
      Alcotest.(check int)
        (Printf.sprintf "%s/%d triangle count" fam seed)
        (sum3 / 3) (Csr.triangle_count csr))

(* --- kernel agreement over the random families ---------------------------- *)

let test_support_agreement () =
  iter_cases (fun fam seed g ->
      let reference = Ref_truss.support g in
      let csr = Csr.of_graph g in
      let flat = Truss.Support.all_csr csr in
      Graph.iter_edges g (fun u v ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%d flat support (%d,%d)" fam seed u v)
            (Hashtbl.find reference (Edge_key.make u v))
            flat.(Csr.edge_id csr u v)))

let test_decompose_agreement () =
  iter_cases (fun fam seed g ->
      let reference, reference_kmax = Ref_truss.decompose g in
      let csr = Truss.Decompose.run g in
      Alcotest.(check int)
        (Printf.sprintf "%s/%d kmax" fam seed)
        reference_kmax (Truss.Decompose.kmax csr);
      let bindings = ref [] in
      Truss.Decompose.iter csr (fun key tau -> bindings := (key, tau) :: !bindings);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s/%d trussness map" fam seed)
        (sorted_bindings reference) (List.sort compare !bindings))

let test_onion_agreement () =
  iter_cases (fun fam seed g ->
      let dec = Truss.Decompose.run g in
      let k = min 4 (Truss.Decompose.kmax dec + 1) in
      let cands = ref [] in
      Truss.Decompose.iter dec (fun key tau -> if tau < k then cands := key :: !cands);
      if !cands <> [] then begin
        let backdrop = Truss.Decompose.truss_edge_table dec k in
        let build () = Truss.Onion.build_h ~g ~backdrop ~candidates:!cands in
        let reference = Ref_truss.onion_peel ~h:(build ()) ~k ~candidates:!cands in
        let csr = Truss.Onion.peel ~h:(build ()) ~k ~candidates:!cands () in
        Alcotest.(check int)
          (Printf.sprintf "%s/%d max_layer" fam seed)
          reference.Truss.Onion.max_layer csr.Truss.Onion.max_layer;
        Alcotest.(check int)
          (Printf.sprintf "%s/%d rounds" fam seed)
          reference.Truss.Onion.rounds csr.Truss.Onion.rounds;
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s/%d layers" fam seed)
          (sorted_bindings reference.Truss.Onion.layer)
          (sorted_bindings csr.Truss.Onion.layer)
      end)

let test_csr_peel_preserves_h () =
  let g = Helpers.fig1 () in
  let dec = Truss.Decompose.run g in
  let k = 4 in
  let cands = ref [] in
  Truss.Decompose.iter dec (fun key tau -> if tau < k then cands := key :: !cands);
  let backdrop = Truss.Decompose.truss_edge_table dec k in
  let h = Truss.Onion.build_h ~g ~backdrop ~candidates:!cands in
  let before = Graph.num_edges h in
  ignore (Truss.Onion.peel ~h ~k ~candidates:!cands ());
  Alcotest.(check int) "CSR peel leaves h untouched" before (Graph.num_edges h)

(* --- merged and dense snapshots ---------------------------------------- *)

(* Every observable of two snapshots agrees: the counts, each edge id's
   endpoints, each row with its edge ids, and the triangle count. *)
let same_csr a b =
  let row csr u =
    let acc = ref [] in
    Csr.iter_neighbors_eid csr u (fun v e -> acc := (v, e) :: !acc);
    !acc
  in
  Csr.num_nodes a = Csr.num_nodes b
  && Csr.num_edges a = Csr.num_edges b
  && Csr.max_node_id a = Csr.max_node_id b
  && List.for_all
       (fun e -> Csr.edge_endpoints a e = Csr.edge_endpoints b e)
       (List.init (Csr.num_edges a) Fun.id)
  && List.for_all (fun u -> row a u = row b u) (List.init (Csr.max_node_id a + 1) Fun.id)
  && Csr.triangle_count a = Csr.triangle_count b

(* [pairs] inserted into [g] (mutated) through the graph; returns the
   absent pairs the way Csr.add_edges reports them. *)
let insert_absent g pairs =
  List.filter_map
    (fun (u, v) -> if u <> v && Graph.add_edge g u v then Some (min u v, max u v) else None)
    pairs
  |> List.sort compare

let prop_add_edges_equals_rebuild =
  QCheck2.Test.make ~name:"add_edges equals a snapshot of the grown graph" ~count:200
    QCheck2.Gen.(
      pair (Helpers.random_graph_gen ())
        (list_size (int_range 0 8) (pair (int_range 0 20) (int_range 0 20))))
    (fun (edges, extra) ->
      let g = Graph.of_edges edges in
      (* a duplicate, a present pair (reversed) and a self-loop on top of the
         random pairs, whose ids run past the graph's largest node *)
      let pairs =
        extra
        @ (match extra with p :: _ -> [ p ] | [] -> [])
        @ (match edges with (u, v) :: _ -> [ (v, u) ] | [] -> [])
        @ [ (4, 4) ]
      in
      let merged, absent = Csr.add_edges (Csr.of_graph g) pairs in
      let expected_absent = insert_absent g pairs in
      absent = expected_absent && same_csr (Csr.of_graph g) merged)

let test_add_edges_cases () =
  let g = Helpers.fig1 () in
  let csr = Csr.of_graph g in
  let merged, absent = Csr.add_edges csr [] in
  Alcotest.(check (list (pair int int))) "empty list: nothing absent" [] absent;
  Alcotest.(check bool) "empty list: same snapshot" true (same_csr csr merged);
  let pairs = [ (3, 40); (41, 40); (2, 7); (7, 2); (0, 1); (9, 9) ] in
  let merged, absent = Csr.add_edges csr pairs in
  Alcotest.(check (list (pair int int))) "absent pairs" [ (2, 7); (3, 40); (40, 41) ] absent;
  Alcotest.(check int) "snapshot grows to the new ids" 41 (Csr.max_node_id merged);
  Alcotest.(check (list (pair int int))) "graph agrees" absent (insert_absent g pairs);
  Alcotest.(check bool) "new ids: equals a rebuild" true (same_csr (Csr.of_graph g) merged);
  let empty = Graph.create () in
  let merged, _ = Csr.add_edges (Csr.of_graph empty) [ (5, 2) ] in
  ignore (Graph.add_edge empty 2 5);
  Alcotest.(check bool) "from the empty snapshot" true (same_csr (Csr.of_graph empty) merged);
  Alcotest.check_raises "negative id" (Invalid_argument "Csr.add_edges: node id out of range")
    (fun () -> ignore (Csr.add_edges csr [ (-1, 3) ]))

let test_dense_snapshot () =
  iter_cases (fun fam seed g ->
      (* spread the ids out so the renaming is not the identity *)
      let spread = Graph.create () in
      Graph.iter_edges g (fun u v -> ignore (Graph.add_edge spread (7 * u + 100) (7 * v + 100)));
      let csr, label = Csr.of_graph_dense spread in
      let name what = Printf.sprintf "%s/%d %s" fam seed what in
      let nodes = ref [] in
      Graph.iter_nodes spread (fun u -> nodes := u :: !nodes);
      Alcotest.(check (list int)) (name "labels are the ascending nodes") (List.rev !nodes)
        (Array.to_list label);
      Alcotest.(check int) (name "dense ids") (Array.length label - 1) (Csr.max_node_id csr);
      (* edge ids enumerate the graph's edges in lexicographic order *)
      let edges =
        List.init (Csr.num_edges csr) (fun e ->
            let a, b = Csr.edge_endpoints csr e in
            (label.(a), label.(b)))
      in
      Alcotest.(check (list (pair int int))) (name "edges in lexicographic order")
        (List.sort compare (List.map Edge_key.endpoints (Graph.edges spread)))
        edges;
      Alcotest.(check int) (name "triangles") (Csr.triangle_count (Csr.of_graph g))
        (Csr.triangle_count csr))

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "edge ids" `Quick test_edge_ids;
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "common neighbors fig1" `Quick test_common_neighbors_fig1;
    Alcotest.test_case "galloping intersection" `Quick test_gallop_skewed;
    Alcotest.test_case "triangle count" `Quick test_triangle_count_matches_support_sum;
    Alcotest.test_case "support agreement" `Quick test_support_agreement;
    Alcotest.test_case "decompose agreement" `Quick test_decompose_agreement;
    Alcotest.test_case "onion agreement" `Quick test_onion_agreement;
    Alcotest.test_case "CSR peel immutability" `Quick test_csr_peel_preserves_h;
    Helpers.qtest prop_add_edges_equals_rebuild;
    Alcotest.test_case "add_edges: empty list, new ids, empty base" `Quick test_add_edges_cases;
    Alcotest.test_case "dense snapshot" `Quick test_dense_snapshot;
  ]
