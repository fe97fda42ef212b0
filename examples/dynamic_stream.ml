(* Dynamic graph stream: track a k-truss through interleaved edge
   insertions and deletions, each applied as a one-edge batch through the
   service's mutation log — the incremental maintenance the daemon's
   `mutate` runs, and the substrate truss maximization verifies its plans
   with, usable on its own for streaming cohesive-subgraph monitoring.

     dune exec examples/dynamic_stream.exe *)

open Graphcore

let () =
  let rng = Rng.create 3 in
  let base = Gen.powerlaw_cluster ~rng ~n:300 ~m:5 ~p:0.7 in
  let g = Gen.with_communities ~rng ~base ~communities:8 ~size_min:8 ~size_max:12 ~drop:0.25 in
  let k = 6 in
  let store = Service.Store.create (Service.Epoch.create g) in
  let index () = Service.Epoch.index (Service.Store.current store) in
  let truss_size () = Truss.Index.truss_size (index ()) k in
  let apply op = ignore (Service.Mutation_log.apply store [ op ]) in
  Printf.printf "start: %d edges, %d-truss holds %d of them\n" (Graph.num_edges g) k
    (truss_size ());

  (* A stream of 30 random events: 2/3 insertions near existing wedges,
     1/3 deletions of random truss edges. *)
  let nodes =
    let acc = ref [] in
    Graph.iter_nodes g (fun v -> acc := v :: !acc);
    Array.of_list !acc
  in
  for step = 1 to 30 do
    let before = truss_size () in
    if Rng.int rng 3 < 2 then begin
      (* insertion: close a random wedge *)
      let graph = Service.Epoch.graph (Service.Store.current store) in
      let u = Rng.pick rng nodes in
      let nbrs = Array.of_list (Graph.neighbors graph u) in
      if Array.length nbrs >= 2 then begin
        let a = Rng.pick rng nbrs and b = Rng.pick rng nbrs in
        if a <> b && not (Graph.mem_edge graph a b) then begin
          apply (Service.Mutation_log.Insert (a, b));
          let after = truss_size () in
          if after > before then
            Printf.printf "step %2d: +(%d,%d) promoted %d edges (truss: %d)\n" step a b
              (after - before) after
        end
      end
    end
    else begin
      (* deletion of a random truss edge: watch the cascade *)
      let keys = Truss.Index.truss_edges (index ()) k in
      if keys <> [] then begin
        let u, v = Edge_key.endpoints (List.nth keys (Rng.int rng (List.length keys))) in
        apply (Service.Mutation_log.Delete (u, v));
        let after = truss_size () in
        Printf.printf "step %2d: -(%d,%d) demoted %d edges (truss: %d)\n" step u v
          (before - after) after
      end
    end
  done;

  (* Cross-check the maintained truss against recomputation. *)
  let maintained = Truss.Index.truss_edges (index ()) k in
  let fresh =
    Truss.Truss_query.k_truss_edges (Service.Epoch.graph (Service.Store.current store)) ~k
  in
  Printf.printf "\nfinal: maintained truss %d edges, recomputed %d edges -> %s\n"
    (List.length maintained) (Hashtbl.length fresh)
    (if List.length maintained = Hashtbl.length fresh
        && List.for_all (fun key -> Hashtbl.mem fresh key) maintained
     then "consistent"
     else "MISMATCH")
