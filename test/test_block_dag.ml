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
          let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
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
          let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
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
          let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
          let dag = Block_dag.build ~h ~dec ~k ~component:comp ~onion in
          Array.for_all
            (fun (src, _, w) -> w <= Block_dag.size dag src)
            dag.Block_dag.links)
        comps)

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* PCFR peels and builds each component's DAG on its scoring frame
   ({!Pcfr.component_dag}); the [~h] adapters snapshot the conversion
   subgraph of [Onion.build_h] instead.  Both must agree exactly, field by
   field, on every level-1 component of three registry graphs. *)
let test_frame_matches_adapters () =
  List.iter
    (fun name ->
      let spec = Datasets.Registry.find name in
      let g = spec.Datasets.Registry.build () and k = spec.Datasets.Registry.default_k in
      let ctx = Score.make_ctx g ~k in
      let dec = Truss.Decompose.run g in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      Alcotest.(check bool) (name ^ " has level-1 components") true (comps <> []);
      List.iteri
        (fun i component ->
          let what field = Printf.sprintf "%s component %d: %s" name i field in
          let lctx = Score.local_ctx ctx ~component in
          let fo, fd = Pcfr.component_dag ~lctx ~dec ~component in
          let h = Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:component in
          let o = Truss.Onion.peel ~h ~k ~candidates:component () in
          let d = Block_dag.build ~h ~dec ~k ~component ~onion:o in
          let ints = Alcotest.(check (array int)) and int = Alcotest.(check int) in
          int (what "rounds") o.Truss.Onion.rounds fo.Truss.Onion.rounds;
          int (what "onion max_layer") o.Truss.Onion.max_layer fo.Truss.Onion.max_layer;
          Alcotest.(check (list (pair int int)))
            (what "layers") (sorted_bindings o.Truss.Onion.layer)
            (List.map (fun key -> (key, fo.Truss.Onion.layer_of.(Score.frame_edge_id lctx key))) component
            |> List.sort compare);
          int (what "n_blocks") d.Block_dag.n_blocks fd.Block_dag.n_blocks;
          Alcotest.(check (list (pair int int)))
            (what "index") (sorted_bindings d.Block_dag.index) (sorted_bindings fd.Block_dag.index);
          Alcotest.(check (array (array int))) (what "edges_of") d.Block_dag.edges_of fd.Block_dag.edges_of;
          ints (what "layer") d.Block_dag.layer fd.Block_dag.layer;
          ints (what "tau") d.Block_dag.tau fd.Block_dag.tau;
          Alcotest.(check (array (triple int int int))) (what "links") d.Block_dag.links fd.Block_dag.links;
          ints (what "out_weight") d.Block_dag.out_weight fd.Block_dag.out_weight;
          ints (what "base_sink") d.Block_dag.base_sink fd.Block_dag.base_sink;
          int (what "max_layer") d.Block_dag.max_layer fd.Block_dag.max_layer;
          int (what "max_block_size") d.Block_dag.max_block_size fd.Block_dag.max_block_size;
          int (what "total_link_weight") d.Block_dag.total_link_weight fd.Block_dag.total_link_weight)
        comps)
    [ "gowalla-sample"; "facebook"; "enron" ]

let suite =
  [
    Alcotest.test_case "fig2 blocks" `Quick test_fig2_block_structure;
    Alcotest.test_case "fig2 link weights" `Quick test_fig2_link_weights;
    Alcotest.test_case "fig2 sink weights" `Quick test_fig2_sink_weights;
    Alcotest.test_case "fig2 q" `Quick test_fig2_q;
    Alcotest.test_case "block_of partition" `Quick test_block_of_partition;
    Alcotest.test_case "homogeneous blocks" `Quick test_blocks_homogeneous_layer;
    Alcotest.test_case "edges_of_blocks" `Quick test_edges_of_blocks;
    Alcotest.test_case "frame DAG equals the ~h adapters on registry graphs" `Quick
      test_frame_matches_adapters;
    Helpers.qtest prop_blocks_partition_component;
    Helpers.qtest prop_links_go_downhill;
    Helpers.qtest prop_link_weight_bounded_by_block;
  ]
