(** k-truss extraction for a fixed [k], read off a {!Decompose.run}: the
    k-truss is exactly the edges of trussness at least [k], and the CSR
    peel computes every level faster than a hashtable cascade computes
    one. *)

open Graphcore

val k_truss_edges : Graph.t -> k:int -> (Edge_key.t, unit) Hashtbl.t
(** Edge set of the k-truss of [g] ([g] unchanged). *)

val k_truss_size : Graph.t -> k:int -> int
