(** Edge support (triangle count) computation.

    [sup_G(u, v) = |N(u) ∩ N(v)|] — the quantity the k-truss constraint
    bounds from below by [k - 2]. *)

open Graphcore

val all_csr : Csr.t -> int array
(** Supports of every edge, indexed by {!Csr} edge id: each triangle is
    enumerated once via the degree orientation.  [sup_G(u, v)] of a single
    pair is {!Graph.count_common_neighbors}. *)
