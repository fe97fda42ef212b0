(** Edge support (triangle count) computation.

    [sup_G(u, v) = |N(u) ∩ N(v)|] — the quantity the k-truss constraint
    bounds from below by [k - 2]. *)

open Graphcore

val of_edge : Graph.t -> int -> int -> int
(** Support of one (possibly absent) edge in the graph. *)

val all : Graph.t -> (Edge_key.t, int) Hashtbl.t
(** Supports of every edge of the graph: snapshots the graph into {!Csr}
    form and enumerates each triangle once via the degree orientation. *)

val all_csr : Csr.t -> int array
(** Supports indexed by {!Csr} edge id — the flat-array form the CSR
    kernels consume directly. *)

val sum : Graph.t -> int
(** Sum of all supports = 3 x number of triangles. *)
