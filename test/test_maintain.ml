open Graphcore

(* k_truss_after_insert_csr on the snapshot of [g], with T_k(g) as the old
   truss. *)
let insert g ~k inserted =
  let csr = Csr.of_graph g in
  let old = Ref_truss.k_truss_edges g ~k in
  let old_truss = Array.init (Csr.num_edges csr) (fun e -> Hashtbl.mem old (Csr.edge_key csr e)) in
  Truss.Maintain.k_truss_after_insert_csr ~csr ~old_truss ~k ~inserted

let test_insert_completes_truss () =
  (* K4 minus one edge has no 4-truss; adding the edge back creates one. *)
  let g = Helpers.clique 4 in
  ignore (Graph.remove_edge g 0 1);
  let old_truss = Truss.Truss_query.k_truss_edges g ~k:4 in
  Alcotest.(check int) "no 4-truss before" 0 (Hashtbl.length old_truss);
  let delta = insert g ~k:4 [ (0, 1) ] in
  Alcotest.(check int) "all six edges promoted" 6 (List.length delta.Truss.Maintain.promoted);
  Alcotest.(check int) "new size" 6 delta.Truss.Maintain.new_size

let test_existing_edges_ignored () =
  let g = Helpers.clique 4 in
  let delta = insert g ~k:4 [ (0, 1) ] in
  Alcotest.(check int) "nothing promoted" 0 (List.length delta.Truss.Maintain.promoted);
  Alcotest.(check int) "graph unchanged" 6 (Graph.num_edges g)

let test_useless_insert () =
  let g = Helpers.path 4 in
  let delta = insert g ~k:4 [ (0, 3) ] in
  Alcotest.(check int) "cycle has no 4-truss" 0 (List.length delta.Truss.Maintain.promoted)

let test_fig1_partial_plan () =
  (* Inserting (c,h)=(2,7) must promote exactly 5 edges (Fig. 1(c)). *)
  let delta = insert (Helpers.fig1 ()) ~k:4 [ (2, 7) ] in
  Alcotest.(check int) "five new 4-truss edges" 5 (List.length delta.Truss.Maintain.promoted)

let test_fig1_full_plan () =
  (* Inserting (c,h) and (a,i) fully converts C1: 8 new edges (Fig. 1(b)). *)
  let delta = insert (Helpers.fig1 ()) ~k:4 [ (2, 7); (0, 8) ] in
  Alcotest.(check int) "eight new 4-truss edges" 8 (List.length delta.Truss.Maintain.promoted)

let insertion_gen =
  QCheck2.Gen.(
    let* edges = Helpers.random_graph_gen () in
    let* extra = list_size (int_range 0 6) (pair (int_range 0 12) (int_range 0 12)) in
    return (edges, extra))

let prop_matches_oracle =
  QCheck2.Test.make ~name:"incremental update equals recomputation from scratch" ~count:150
    insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let inserted = List.filter (fun (u, v) -> u <> v) extra in
      List.for_all
        (fun k ->
          let old_truss = Ref_truss.k_truss_edges g ~k in
          let delta = insert g ~k inserted in
          (* Oracle: recompute on the union graph. *)
          let g' = Graph.copy g in
          List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) inserted;
          let full = Ref_truss.k_truss_edges g' ~k in
          let expected_promoted =
            Hashtbl.fold
              (fun key () acc -> if Hashtbl.mem old_truss key then acc else key :: acc)
              full []
            |> List.sort compare
          in
          List.sort compare delta.Truss.Maintain.promoted = expected_promoted
          && delta.Truss.Maintain.new_size = Hashtbl.length full)
        [ 3; 4; 5 ])

let prop_monotone =
  QCheck2.Test.make ~name:"insertions never shrink the truss" ~count:100 insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let inserted = List.filter (fun (u, v) -> u <> v) extra in
      let old_truss = Truss.Truss_query.k_truss_edges g ~k:4 in
      (insert g ~k:4 inserted).Truss.Maintain.new_size >= Hashtbl.length old_truss)

(* --- deletions, through the batch update ----------------------------------- *)

(* batch_update_csr deleting the pairs of [deleted] present in [g], read
   at level k off the patched decomposition: the demoted edges, sorted,
   and the size of the new k-truss. *)
let delete g ~k deleted =
  let deleted =
    List.filter_map
      (fun (u, v) -> if u <> v && Graph.mem_edge g u v then Some (min u v, max u v) else None)
      deleted
    |> List.sort_uniq compare
  in
  let csr = Csr.of_graph g in
  let dec = Truss.Decompose.of_csr csr in
  let result =
    Truss.Maintain.batch_update_csr ~csr
      ~tau:(Truss.Decompose.trussness_opt dec)
      ~kmax:(Truss.Decompose.kmax dec) ~inserted:[] ~deleted
  in
  let patched = Truss.Decompose.patched dec ~changes:result.Truss.Maintain.changes in
  let after = Truss.Decompose.truss_edge_table patched k in
  let demoted =
    List.filter (fun key -> not (Hashtbl.mem after key)) (Truss.Decompose.truss_edges dec k)
  in
  (List.sort compare demoted, Hashtbl.length after)

let test_delete_breaks_truss () =
  let g = Helpers.clique 4 in
  let demoted, remaining = delete g ~k:4 [ (0, 1) ] in
  Alcotest.(check int) "whole K4 demoted" 6 (List.length demoted);
  Alcotest.(check int) "nothing remains" 0 remaining;
  Alcotest.(check int) "graph untouched" 6 (Graph.num_edges g)

let test_delete_outside_truss () =
  let g = Helpers.fig1 () in
  (* (a,h) is a 3-class edge: deleting it cannot touch the 4-truss *)
  let demoted, _ = delete g ~k:4 [ (0, 7) ] in
  Alcotest.(check int) "no demotions" 0 (List.length demoted);
  Alcotest.(check bool) "graph untouched" true (Graph.mem_edge g 0 7)

let test_delete_absent_edge_ignored () =
  (* an absent pair never reaches the deletion kernel: the mutation log
     drops it before the batch update, and K4's 4-truss stays whole *)
  let store = Service.Store.create (Service.Epoch.create (Helpers.clique 4)) in
  let out = Service.Mutation_log.apply store [ Service.Mutation_log.Delete (0, 9) ] in
  Alcotest.(check int) "nothing deleted" 0 out.Service.Mutation_log.deleted;
  let dec = Service.Epoch.decompose out.Service.Mutation_log.epoch in
  Alcotest.(check int) "nothing happens" 6 (List.length (Truss.Decompose.truss_edges dec 4))

let prop_delete_matches_oracle =
  QCheck2.Test.make ~name:"deletion update equals recomputation from scratch" ~count:150
    insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      (* reuse the extra pairs as deletion requests against existing edges *)
      let deleted = List.filter (fun (u, v) -> u <> v) extra in
      List.for_all
        (fun k ->
          let old_truss = Ref_truss.k_truss_edges g ~k in
          let demoted, remaining = delete g ~k deleted in
          let g' = Graph.copy g in
          List.iter (fun (u, v) -> ignore (Graph.remove_edge g' u v)) deleted;
          let full = Ref_truss.k_truss_edges g' ~k in
          let expected_demoted =
            Hashtbl.fold
              (fun key () acc -> if Hashtbl.mem full key then acc else key :: acc)
              old_truss []
            |> List.sort compare
          in
          demoted = expected_demoted && remaining = Hashtbl.length full)
        [ 3; 4; 5 ])

let prop_insert_then_delete_roundtrip =
  QCheck2.Test.make ~name:"inserting then deleting the same edges is a no-op on the truss"
    ~count:80 insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let fresh = List.filter (fun (u, v) -> u <> v && not (Graph.mem_edge g u v)) extra in
      let k = 4 in
      let t0 = Truss.Truss_query.k_truss_edges g ~k in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) fresh;
      snd (delete g ~k fresh) = Hashtbl.length t0)

(* --- pure CSR batch maintenance ------------------------------------------- *)

(* Random batch meeting batch_update_csr's preconditions: inserted edges
   absent from g, deleted edges present, both lists disjoint and dedup'd. *)
let batch_gen =
  QCheck2.Gen.(
    let* edges = Helpers.random_graph_gen () in
    let* raw_ins = list_size (int_range 0 6) (pair (int_range 0 14) (int_range 0 14)) in
    let* del_picks = list_size (int_range 0 4) (int_range 0 1_000_000) in
    return (edges, raw_ins, del_picks))

(* The graph, the deletions and the insertions of a generated batch. *)
let batch_of (edges, raw_ins, del_picks) =
  let g = Graph.of_edges edges in
  let all_edges = Graph.edge_array g in
  let deleted =
    List.map (fun pick -> Edge_key.endpoints all_edges.(pick mod Array.length all_edges)) del_picks
    |> List.sort_uniq compare
  in
  let del_tbl = Hashtbl.create 8 in
  List.iter (fun (u, v) -> Hashtbl.replace del_tbl (Edge_key.make u v) ()) deleted;
  let inserted =
    List.filter
      (fun (u, v) ->
        u <> v && (not (Graph.mem_edge g u v)) && not (Hashtbl.mem del_tbl (Edge_key.make u v)))
      raw_ins
    |> List.sort_uniq compare
  in
  (g, deleted, inserted)

let run_batch g ~deleted ~inserted =
  let dec = Truss.Decompose.run g in
  ( dec,
    Truss.Maintain.batch_update_csr ~csr:(Csr.of_graph g)
      ~tau:(Truss.Decompose.trussness_opt dec)
      ~kmax:(Truss.Decompose.kmax dec) ~inserted ~deleted )

let prop_batch_matches_full_recompute =
  QCheck2.Test.make ~name:"CSR batch update equals full recomputation" ~count:150 batch_gen
    (fun ((edges, _, _) as batch) ->
      QCheck2.assume (edges <> []);
      let g, deleted, inserted = batch_of batch in
      let dec, result = run_batch g ~deleted ~inserted in
      (* apply changes to a copy of the base tau table; oracle = the
         hashtable peel of the updated graph *)
      let patched = Truss.Decompose.patched dec ~changes:result.Truss.Maintain.changes in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> ignore (Graph.remove_edge g' u v)) deleted;
      List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) inserted;
      let oracle, oracle_kmax = Ref_truss.decompose g' in
      let ok = ref (Truss.Decompose.kmax patched = oracle_kmax) in
      if Truss.Decompose.num_edges patched <> Hashtbl.length oracle then ok := false;
      Hashtbl.iter
        (fun key tau -> if Truss.Decompose.trussness_opt patched key <> Some tau then ok := false)
        oracle;
      (* pure: base graph, snapshot and decomposition are untouched *)
      if Truss.Decompose.num_edges dec <> Graph.num_edges g then ok := false;
      !ok)

(* [levels] and [region_edges] against the naive cascade: at each level k
   from 3 the batch demotes T_k(G) ∖ T_k(G ∖ D) and promotes
   T_k(G') ∖ T_k(G ∖ D), and the levels run until past the old kmax with
   nothing promoted. *)
let prop_batch_work_matches_oracle =
  QCheck2.Test.make ~name:"batch levels and region edges match the per-level oracle" ~count:150
    batch_gen
    (fun ((edges, _, _) as batch) ->
      QCheck2.assume (edges <> []);
      let g, deleted, inserted = batch_of batch in
      let dec, result = run_batch g ~deleted ~inserted in
      let g_mid = Graph.copy g in
      List.iter (fun (u, v) -> ignore (Graph.remove_edge g_mid u v)) deleted;
      let g' = Graph.copy g_mid in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) inserted;
      let missing_from t_mid t =
        Hashtbl.fold (fun key () n -> if Hashtbl.mem t_mid key then n else n + 1) t 0
      in
      let rec expect k levels region =
        let t_mid = Ref_truss.k_truss_edges g_mid ~k in
        let demoted = missing_from t_mid (Ref_truss.k_truss_edges g ~k) in
        let promoted = missing_from t_mid (Ref_truss.k_truss_edges g' ~k) in
        let levels = levels + 1 and region = region + demoted + promoted in
        if k <= Truss.Decompose.kmax dec || promoted > 0 then expect (k + 1) levels region
        else (levels, region)
      in
      let levels, region = if inserted = [] && deleted = [] then (0, 0) else expect 3 0 0 in
      result.Truss.Maintain.levels = levels && result.Truss.Maintain.region_edges = region)

let test_batch_is_pure () =
  let g = Helpers.two_cliques_shared_edge () in
  let before = Graph.copy g in
  let csr = Csr.of_graph g in
  let dec = Truss.Decompose.run g in
  let kmax0 = Truss.Decompose.kmax dec in
  ignore
    (Truss.Maintain.batch_update_csr ~csr
       ~tau:(Truss.Decompose.trussness_opt dec)
       ~kmax:kmax0
       ~inserted:[ (2, 5); (3, 5) ]
       ~deleted:[ (0, 1) ]);
  Alcotest.(check bool) "graph untouched" true (Graph.equal g before);
  Alcotest.(check int) "decomposition untouched" kmax0 (Truss.Decompose.kmax dec)

let test_batch_empty_is_noop () =
  let g = Helpers.clique 5 in
  let csr = Csr.of_graph g in
  let dec = Truss.Decompose.run g in
  let result =
    Truss.Maintain.batch_update_csr ~csr
      ~tau:(Truss.Decompose.trussness_opt dec)
      ~kmax:(Truss.Decompose.kmax dec) ~inserted:[] ~deleted:[]
  in
  Alcotest.(check int) "no changes" 0 (List.length result.Truss.Maintain.changes);
  Alcotest.(check int) "no region" 0 result.Truss.Maintain.region_edges

let suite =
  [
    Alcotest.test_case "insert completes truss" `Quick test_insert_completes_truss;
    Helpers.qtest prop_batch_matches_full_recompute;
    Helpers.qtest prop_batch_work_matches_oracle;
    Alcotest.test_case "batch update is pure" `Quick test_batch_is_pure;
    Alcotest.test_case "empty batch is a no-op" `Quick test_batch_empty_is_noop;
    Alcotest.test_case "delete breaks truss" `Quick test_delete_breaks_truss;
    Alcotest.test_case "delete outside truss" `Quick test_delete_outside_truss;
    Alcotest.test_case "delete absent edge" `Quick test_delete_absent_edge_ignored;
    Helpers.qtest prop_delete_matches_oracle;
    Helpers.qtest prop_insert_then_delete_roundtrip;
    Alcotest.test_case "existing edges ignored" `Quick test_existing_edges_ignored;
    Alcotest.test_case "useless insert" `Quick test_useless_insert;
    Alcotest.test_case "fig1 partial plan scores 5" `Quick test_fig1_partial_plan;
    Alcotest.test_case "fig1 full plan scores 8" `Quick test_fig1_full_plan;
    Helpers.qtest prop_matches_oracle;
    Helpers.qtest prop_monotone;
  ]
