open Graphcore

let k_truss_edges g ~k = Decompose.truss_edge_table (Decompose.run g) k

let k_truss g ~k =
  let edges = k_truss_edges g ~k in
  let out = Graph.create () in
  Hashtbl.iter
    (fun key () ->
      let u, v = Edge_key.endpoints key in
      ignore (Graph.add_edge out u v))
    edges;
  out

let k_truss_size g ~k = Hashtbl.length (k_truss_edges g ~k)

let is_k_truss g ~k =
  let ok = ref true in
  Graph.iter_edges g (fun u v -> if Support.of_edge g u v < k - 2 then ok := false);
  !ok
