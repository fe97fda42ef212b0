(* Cross-cutting odds and ends: API surface not covered elsewhere. *)

open Graphcore
open Maxtruss

let test_add_remove_edges_counts () =
  let g = Graph.create () in
  let added = Graph.add_edges g [ (0, 1); (1, 2); (0, 1); (2, 0) ] in
  Alcotest.(check int) "three new edges" 3 added;
  let removed = Graph.remove_edges g [ (0, 1); (5, 6) ] in
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check int) "two left" 2 (Graph.num_edges g)

let test_subgraph_of_edges () =
  let g = Helpers.fig1 () in
  let sub = Graph.subgraph_of_edges g Helpers.fig1_c1_edges in
  Alcotest.(check int) "six edges" 6 (Graph.num_edges sub);
  Alcotest.(check int) "five nodes" 5 (Graph.num_nodes sub)

let test_neighbors_list () =
  let g = Graph.of_edges [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (list int)) "sorted neighbor list" [ 1; 2; 3 ]
    (List.sort compare (Graph.neighbors g 0))

let test_plan_costs () =
  let mk cost score =
    let inserted = List.init cost (fun i -> Edge_key.make (100 + i) (200 + i)) in
    { Plan.inserted; cost; score }
  in
  let r = Plan.normalize [ mk 1 2; mk 3 9 ] in
  Alcotest.(check (list int)) "costs listed" [ 1; 3 ] (Plan.costs r)

let test_plan_pp_smoke () =
  let mk cost score =
    let inserted = List.init cost (fun i -> Edge_key.make (100 + i) (200 + i)) in
    { Plan.inserted; cost; score }
  in
  let s = Format.asprintf "%a" Plan.pp (Plan.normalize [ mk 1 2; mk 3 9 ]) in
  Alcotest.(check string) "menu rendering" "[1:2; 3:9]" s

let test_gio_whitespace_only_lines () =
  let g = Gio.parse_string "   \n\t\n0 1\n" in
  Alcotest.(check int) "one edge" 1 (Graph.num_edges g)

let test_gio_large_ids () =
  let g = Gio.parse_string "1048575 524287\n" in
  Alcotest.(check bool) "large ids parse" true (Graph.mem_edge g 1048575 524287)

let test_sweep_records_g_param () =
  let g = Helpers.fig1 () in
  let dec = Truss.Decompose.run g in
  let ctx = Score.make_ctx g ~k:4 in
  let comp = Helpers.fig1_c1_edges in
  let h = Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:comp in
  let onion = Truss.Onion.peel ~h ~k:4 ~candidates:comp () in
  let dag = Block_dag.build ~h ~dec ~k:4 ~component:comp ~onion in
  let gmax = Flow_plan.g_max ~dag ~w1:1 ~w2:1 in
  List.iter
    (fun sel ->
      Alcotest.(check bool) "g in range" true
        (sel.Flow_plan.g_param >= 0 && sel.Flow_plan.g_param <= gmax))
    (Flow_plan.sweep ~dag ~w1:1 ~w2:1 ~probes:10 ())

let test_convert_counters_nonnegative () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  let conv = Convert.convert ~ctx ~target:Helpers.fig1_c1_edges () in
  Alcotest.(check bool) "counters sane" true
    (conv.Convert.clique_fallbacks >= 0 && conv.Convert.greedy_fallbacks >= 0)

let test_convert_truss_edges_noop () =
  (* Converting edges already in the truss needs nothing at all. *)
  let g = Helpers.clique 6 in
  let ctx = Score.make_ctx g ~k:4 in
  let conv = Convert.convert ~ctx ~target:[ Edge_key.make 0 1; Edge_key.make 2 3 ] () in
  Alcotest.(check (list (pair int int))) "empty plan" [] conv.Convert.plan

let test_registry_scales () =
  let small =
    List.filter (fun (s : Datasets.Registry.spec) -> s.scale = `Small) Datasets.Registry.all
  in
  Alcotest.(check int) "six small datasets (paper's split + gowalla-sample)" 6
    (List.length small)

let prop_index_class_sizes_consistent =
  QCheck2.Test.make ~name:"index truss sizes telescope over classes" ~count:60
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let idx = Truss.Index.build (Truss.Decompose.run g) in
      let ok = ref true in
      for k = 2 to Truss.Index.kmax idx do
        if
          Truss.Index.truss_size idx k
          <> List.length (Truss.Index.k_class idx k) + Truss.Index.truss_size idx (k + 1)
        then ok := false
      done;
      !ok)

let prop_onion_deeper_layers_survive_longer =
  (* Layer-(l+1) edges must still be present when layer-l edges peel: their
     support at the start of round l is at least the threshold. *)
  QCheck2.Test.make ~name:"onion layers are consistent with peel rounds" ~count:40
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
      let onion = Truss.Onion.peel ~h ~k ~candidates:!cands () in
      (* replay: after removing layers < l, every layer-l edge must be below
         threshold (that is why it peels in round l) *)
      let ok = ref true in
      let work = Graph.copy h in
      for l = 1 to onion.Truss.Onion.max_layer do
        Hashtbl.iter
          (fun key layer ->
            if layer = l then begin
              let u, v = Edge_key.endpoints key in
              if Graph.count_common_neighbors work u v >= k - 2 then ok := false
            end)
          onion.Truss.Onion.layer;
        Hashtbl.iter
          (fun key layer ->
            if layer = l then begin
              let u, v = Edge_key.endpoints key in
              ignore (Graph.remove_edge work u v)
            end)
          onion.Truss.Onion.layer
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "add/remove edge counts" `Quick test_add_remove_edges_counts;
    Alcotest.test_case "subgraph of edges" `Quick test_subgraph_of_edges;
    Alcotest.test_case "neighbors list" `Quick test_neighbors_list;
    Alcotest.test_case "plan costs" `Quick test_plan_costs;
    Alcotest.test_case "plan pp" `Quick test_plan_pp_smoke;
    Alcotest.test_case "gio whitespace lines" `Quick test_gio_whitespace_only_lines;
    Alcotest.test_case "gio large ids" `Quick test_gio_large_ids;
    Alcotest.test_case "sweep records g" `Quick test_sweep_records_g_param;
    Alcotest.test_case "convert counters" `Quick test_convert_counters_nonnegative;
    Alcotest.test_case "convert truss edges noop" `Quick test_convert_truss_edges_noop;
    Alcotest.test_case "registry scales" `Quick test_registry_scales;
    Helpers.qtest prop_index_class_sizes_consistent;
    Helpers.qtest prop_onion_deeper_layers_survive_longer;
  ]
