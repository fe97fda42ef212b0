open Graphcore

let test_clique_trussness () =
  let dec = Truss.Decompose.run (Helpers.clique 6) in
  Alcotest.(check int) "K6 is a 6-truss" 6 (Truss.Decompose.kmax dec);
  Truss.Decompose.iter dec (fun _ tau -> Alcotest.(check int) "every edge tau=6" 6 tau)

let test_triangle () =
  let dec = Truss.Decompose.run (Helpers.triangle ()) in
  Alcotest.(check int) "triangle is a 3-truss" 3 (Truss.Decompose.kmax dec)

let test_path () =
  let dec = Truss.Decompose.run (Helpers.path 5) in
  Alcotest.(check int) "triangle-free graph is a 2-truss" 2 (Truss.Decompose.kmax dec);
  Truss.Decompose.iter dec (fun _ tau -> Alcotest.(check int) "tau=2" 2 tau)

let test_empty () =
  let dec = Truss.Decompose.run (Graph.create ()) in
  Alcotest.(check int) "empty kmax" 0 (Truss.Decompose.kmax dec);
  Alcotest.(check int) "no edges" 0 (Truss.Decompose.num_edges dec)

let test_two_cliques_shared_edge () =
  let dec = Truss.Decompose.run (Helpers.two_cliques_shared_edge ()) in
  Alcotest.(check int) "kmax 5" 5 (Truss.Decompose.kmax dec);
  (* every edge of both K5s is in a 5-truss *)
  Truss.Decompose.iter dec (fun _ tau -> Alcotest.(check int) "all tau=5" 5 tau)

let test_fig1_classes () =
  let dec = Truss.Decompose.run (Helpers.fig1 ()) in
  Alcotest.(check int) "3-class size" 12 (List.length (Truss.Decompose.k_class dec 3));
  Alcotest.(check int) "5-class size" 10 (List.length (Truss.Decompose.k_class dec 5));
  Alcotest.(check int) "T_4 = T_5 = K5" 10 (List.length (Truss.Decompose.truss_edges dec 4))

let test_class_sizes_sum () =
  let g = Helpers.fig1 () in
  let dec = Truss.Decompose.run g in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Truss.Decompose.class_sizes dec) in
  Alcotest.(check int) "classes partition edges" (Graph.num_edges g) total

let test_graph_unmodified () =
  let g = Helpers.fig1 () in
  let before = Graph.num_edges g in
  ignore (Truss.Decompose.run g);
  Alcotest.(check int) "decomposition does not mutate" before (Graph.num_edges g)

let test_truss_edge_table () =
  let dec = Truss.Decompose.run (Helpers.fig1 ()) in
  let t4 = Truss.Decompose.truss_edge_table dec 4 in
  Alcotest.(check int) "table size" 10 (Hashtbl.length t4);
  Alcotest.(check bool) "K5 edge present" true (Hashtbl.mem t4 (Edge_key.make 0 1));
  Alcotest.(check bool) "3-class edge absent" false (Hashtbl.mem t4 (Edge_key.make 0 7))

let prop_matches_oracle =
  QCheck2.Test.make ~name:"trussness matches naive fixpoint oracle" ~count:60
    (Helpers.random_graph_gen ~max_n:10 ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let oracle = Helpers.oracle_trussness g in
      let ok = ref true in
      Hashtbl.iter
        (fun key tau ->
          match Truss.Decompose.trussness_opt dec key with
          | Some t when t = tau -> ()
          | _ -> ok := false)
        oracle;
      !ok && Hashtbl.length oracle = Truss.Decompose.num_edges dec)

let prop_truss_property =
  QCheck2.Test.make ~name:"each T_k edge has >= k-2 triangles inside T_k" ~count:80
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let ok = ref true in
      for k = 3 to Truss.Decompose.kmax dec do
        let tk = Graph.of_edge_keys (Truss.Decompose.truss_edges dec k) in
        Graph.iter_edges tk (fun u v ->
            if Graph.count_common_neighbors tk u v < k - 2 then ok := false)
      done;
      !ok)

let prop_hierarchy =
  QCheck2.Test.make ~name:"T_k is contained in T_{k-1}" ~count:80
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let ok = ref true in
      for k = 3 to Truss.Decompose.kmax dec do
        let upper = Truss.Decompose.truss_edges dec k in
        let lower = Truss.Decompose.truss_edge_table dec (k - 1) in
        List.iter (fun key -> if not (Hashtbl.mem lower key) then ok := false) upper
      done;
      !ok)

let prop_maximality =
  QCheck2.Test.make ~name:"no edge outside T_k survives adding it back" ~count:60
    (Helpers.random_graph_gen ~max_n:10 ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      (* Maximality: an edge with trussness k placed in T_{k+1} plus itself
         must fail the support constraint somewhere. *)
      let ok = ref true in
      Truss.Decompose.iter dec (fun key tau ->
          let k = tau + 1 in
          let sub = Graph.of_edge_keys (key :: Truss.Decompose.truss_edges dec k) in
          let u, v = Edge_key.endpoints key in
          if Graph.count_common_neighbors sub u v >= k - 2 then
            (* the edge alone meets the bound, but then it would have been
               included by maximality of the k-truss; flag it *)
            ok := !ok && Truss.Truss_query.k_truss_size sub ~k = Hashtbl.length
                     (Truss.Truss_query.k_truss_edges (Graph.of_edge_keys (Truss.Decompose.truss_edges dec k)) ~k));
      !ok)

(* Obs counters bumped while [f] runs. *)
let counting f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      let count name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ())) in
      (r, count "decompose.triangle_list_peels", count "decompose.intersect_peels"))

let test_triangle_sources () =
  (* The peel walks stored triangle lists while T <= 2m and intersects
     rows above that: fig1 has T = 16 over m = 22, K12 T = 220 over m = 66. *)
  let (), lists, intersect = counting (fun () -> ignore (Truss.Decompose.run (Helpers.fig1 ()))) in
  Alcotest.(check (pair int int)) "fig1 peels over triangle lists" (1, 0) (lists, intersect);
  let (), lists, intersect = counting (fun () -> ignore (Truss.Decompose.run (Helpers.clique 12))) in
  Alcotest.(check (pair int int)) "K12 peels by row intersection" (0, 1) (lists, intersect)

(* Sparse power-law graphs (T <= 2m), or the same with a planted clique of
   18-24 nodes, which pushes T past 2m; [true] marks the planted ones. *)
let sourced_graph_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* planted = bool in
  let rng = Rng.create seed in
  let n = Rng.int_in rng 20 50 in
  let g = Gen.powerlaw_cluster ~rng ~n ~m:2 ~p:0.4 in
  if planted then begin
    let members = Rng.sample_without_replacement rng (Rng.int_in rng 18 24) (Array.init 40 Fun.id) in
    Gen.planted_noisy_clique ~rng ~g ~members ~drop:0.05
  end;
  return (planted, g)

let prop_both_sources_match_reference =
  QCheck2.Test.make ~name:"of_csr matches the reference peel from both triangle sources" ~count:60
    sourced_graph_gen
    (fun (planted, g) ->
      let dec, lists, intersect = counting (fun () -> Truss.Decompose.of_csr (Csr.of_graph g)) in
      let reference, reference_kmax = Ref_truss.decompose g in
      (* planted graphs exercise row intersection, the others the lists *)
      (if planted then (lists, intersect) = (0, 1) else (lists, intersect) = (1, 0))
      && Truss.Decompose.kmax dec = reference_kmax
      && Truss.Decompose.num_edges dec = Hashtbl.length reference
      && Hashtbl.fold
           (fun key tau ok -> ok && Truss.Decompose.trussness_opt dec key = Some tau)
           reference true)

let suite =
  [
    Alcotest.test_case "clique trussness" `Quick test_clique_trussness;
    Alcotest.test_case "triangle" `Quick test_triangle;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "two cliques shared edge" `Quick test_two_cliques_shared_edge;
    Alcotest.test_case "fig1 classes" `Quick test_fig1_classes;
    Alcotest.test_case "class sizes sum" `Quick test_class_sizes_sum;
    Alcotest.test_case "graph unmodified" `Quick test_graph_unmodified;
    Alcotest.test_case "truss edge table" `Quick test_truss_edge_table;
    Helpers.qtest prop_matches_oracle;
    Helpers.qtest prop_truss_property;
    Helpers.qtest prop_hierarchy;
    Helpers.qtest prop_maximality;
    Alcotest.test_case "triangle source follows the triangle count" `Quick test_triangle_sources;
    Helpers.qtest prop_both_sources_match_reference;
  ]
