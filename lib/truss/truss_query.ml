let k_truss_edges g ~k = Decompose.truss_edge_table (Decompose.run g) k

let k_truss_size g ~k = Hashtbl.length (k_truss_edges g ~k)
