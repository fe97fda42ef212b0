(** Truss decomposition: the trussness [tau(e)] of every edge (Definition 2
    of the paper).

    Classic bottom-up peeling: repeatedly remove a minimum-support edge,
    assigning it trussness [support + 2] (made monotone), and decrement the
    support of the two other edges of each triangle it closed.  Runs in
    O(m^1.5) with the bucket queue.  The triangles come from per-edge
    triangle lists laid out once after the support count (6T + m words),
    or, when the graph has more than 2m triangles, from intersecting the
    popped edge's two adjacency rows (m words), which keeps the peel's
    extra memory O(m) on dense graphs. *)

open Graphcore

type t

val of_csr : Csr.t -> t
(** Decompose a frozen snapshot: peels on flat edge-id arrays with an
    intrusive doubly-linked bucket list — no hashing anywhere in the hot
    loop.  Callers that already hold the graph's {!Csr} (the service's
    epochs) pass it here instead of paying for a second snapshot.  Counts
    the triangle source it used in [decompose.triangle_list_peels] or
    [decompose.intersect_peels]. *)

val run : Graph.t -> t
(** [of_csr (Csr.of_graph g)]; [g] is never modified. *)

val patched : t -> changes:(Edge_key.t * int option) list -> t
(** Copy with trussness overrides applied: [(key, Some tau)] sets the
    edge's trussness (adding the edge when new), [(key, None)] drops it;
    [kmax] is recomputed.  [t] is untouched.  This is how the service's
    mutation log derives the post-batch decomposition from a
    {!Maintain.batch_update_csr} delta without re-peeling the graph. *)

val trussness : t -> Edge_key.t -> int
(** Trussness of an edge; raises [Not_found] for edges absent from the
    decomposed graph. *)

val trussness_opt : t -> Edge_key.t -> int option

val kmax : t -> int
(** Largest [k] with a non-empty k-truss: [0] exactly for an edgeless
    graph, at least [2] otherwise. *)

val k_class : t -> int -> Edge_key.t list
(** Edges with trussness exactly [k] (the k-class [E_k]). *)

val truss_edges : t -> int -> Edge_key.t list
(** Edges with trussness at least [k] (the edge set [T_k] of the k-truss). *)

val truss_edge_table : t -> int -> (Edge_key.t, unit) Hashtbl.t

val class_sizes : t -> (int * int) list
(** [(k, |E_k|)] pairs, ascending in [k]. *)

val num_edges : t -> int

val iter : t -> (Edge_key.t -> int -> unit) -> unit
(** Iterate over all (edge, trussness) pairs. *)
