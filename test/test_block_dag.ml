open Graphcore
open Maxtruss

let test_fig2_block_structure () =
  let dag = Helpers.fig1_dag () in
  Alcotest.(check int) "three blocks" 3 dag.Block_dag.n_blocks;
  let sizes = Array.map Array.length dag.Block_dag.edges_of |> Array.to_list |> List.sort compare in
  Alcotest.(check (list int)) "block sizes" [ 2; 2; 2 ] sizes

let test_fig2_link_weights () =
  let dag = Helpers.fig1_dag () in
  (* A -> B weight 1 and A -> C weight 1 as in Example 3 *)
  Alcotest.(check int) "two links" 2 (Array.length dag.Block_dag.links);
  Array.iter
    (fun (src, dst, w) ->
      Alcotest.(check int) "unit weight" 1 w;
      Alcotest.(check bool) "deeper to shallower" true
        (dag.Block_dag.layer.(src) > dag.Block_dag.layer.(dst)))
    dag.Block_dag.links

let test_fig2_sink_weights () =
  let dag = Helpers.fig1_dag () in
  (* B and C have no out-links: base sink weight = block size = 2 *)
  let sink_blocks = ref 0 in
  Array.iteri
    (fun b w ->
      if w > 0 then begin
        incr sink_blocks;
        Alcotest.(check int) "sink weight is block size" (Block_dag.size dag b) w
      end)
    dag.Block_dag.base_sink;
  Alcotest.(check int) "two sink-attached blocks" 2 !sink_blocks

let test_fig2_q () =
  let dag = Helpers.fig1_dag () in
  (* q = link weights (1+1) + sink weights (2+2) = 6 *)
  Alcotest.(check int) "total link weight" 6 dag.Block_dag.total_link_weight

let test_block_of_partition () =
  let dag = Helpers.fig1_dag () in
  List.iter
    (fun key ->
      match Block_dag.block_of dag key with
      | Some b -> Alcotest.(check bool) "valid id" true (b >= 0 && b < dag.Block_dag.n_blocks)
      | None -> Alcotest.fail "component edge missing from blocks")
    Helpers.fig1_c1_edges

let test_blocks_homogeneous_layer () =
  let dag = Helpers.fig1_dag () in
  (* block of (a,f)=(0,5) must be the layer-2 block {(a,f),(c,f)} *)
  match Block_dag.block_of dag (Edge_key.make 0 5) with
  | None -> Alcotest.fail "missing block"
  | Some b ->
    Alcotest.(check int) "layer 2" 2 dag.Block_dag.layer.(b);
    let members = Array.to_list dag.Block_dag.edges_of.(b) |> List.sort compare in
    Alcotest.(check (list (pair int int)))
      "A = {(a,f),(c,f)}"
      [ (0, 5); (2, 5) ]
      (List.map Edge_key.endpoints members)

let test_edges_of_blocks () =
  let dag = Helpers.fig1_dag () in
  let all = Block_dag.edges_of_blocks dag (List.init dag.Block_dag.n_blocks Fun.id) in
  Alcotest.(check int) "all edges covered" 6 (List.length all)

let prop_blocks_partition_component =
  QCheck2.Test.make ~name:"blocks partition the component edges" ~count:50
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
          let onion = Truss.Onion.peel ~h:(Graph.copy h) ~k ~candidates:comp () in
          let dag = Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          let covered = Array.fold_left (fun acc es -> acc + Array.length es) 0 dag.Block_dag.edges_of in
          covered = List.length comp
          && Array.for_all
               (fun members ->
                 (* homogeneous (tau, layer) within each block *)
                 match Array.to_list members with
                 | [] -> true
                 | first :: rest ->
                   let rank key =
                     ( Truss.Decompose.trussness dec key,
                       Hashtbl.find onion.Truss.Onion.layer key )
                   in
                   List.for_all (fun e -> rank e = rank first) rest)
               dag.Block_dag.edges_of)
        comps)

let prop_links_go_downhill =
  QCheck2.Test.make ~name:"DAG links run from deeper to shallower rank" ~count:50
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
          let onion = Truss.Onion.peel ~h:(Graph.copy h) ~k ~candidates:comp () in
          let dag = Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          Array.for_all
            (fun (src, dst, w) ->
              w >= 1
              && ( dag.Block_dag.tau.(src) > dag.Block_dag.tau.(dst)
                 || (dag.Block_dag.tau.(src) = dag.Block_dag.tau.(dst)
                    && dag.Block_dag.layer.(src) > dag.Block_dag.layer.(dst)) ))
            dag.Block_dag.links)
        comps)

let prop_link_weight_bounded_by_block =
  QCheck2.Test.make ~name:"link weight at most source block size" ~count:50
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
          let onion = Truss.Onion.peel ~h:(Graph.copy h) ~k ~candidates:comp () in
          let dag = Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          Array.for_all
            (fun (src, _, w) -> w <= Block_dag.size dag src)
            dag.Block_dag.links)
        comps)

let suite =
  [
    Alcotest.test_case "fig2 blocks" `Quick test_fig2_block_structure;
    Alcotest.test_case "fig2 link weights" `Quick test_fig2_link_weights;
    Alcotest.test_case "fig2 sink weights" `Quick test_fig2_sink_weights;
    Alcotest.test_case "fig2 q" `Quick test_fig2_q;
    Alcotest.test_case "block_of partition" `Quick test_block_of_partition;
    Alcotest.test_case "homogeneous blocks" `Quick test_blocks_homogeneous_layer;
    Alcotest.test_case "edges_of_blocks" `Quick test_edges_of_blocks;
    Helpers.qtest prop_blocks_partition_component;
    Helpers.qtest prop_links_go_downhill;
    Helpers.qtest prop_link_weight_bounded_by_block;
  ]
