(** Mutable undirected simple graph over dense integer node ids.

    The representation is hash-set adjacency per node, which gives O(1)
    expected edge insertion/removal/membership and O(min-degree) triangle
    enumeration through an edge — the two operations truss maximization
    hammers on.  Node ids are arbitrary ints in [\[0, Edge_key.max_node)];
    the node table grows on demand.  Self-loops and parallel edges are
    rejected. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty graph.  [capacity] pre-sizes the node table, at O(capacity)
    cost; without it the table starts at 16 slots and doubles as ids
    grow. *)

val copy : t -> t
(** Deep copy: mutating the copy never affects the original. *)

val add_edge : t -> int -> int -> bool
(** [add_edge g u v] inserts the edge; returns [false] (and leaves [g]
    unchanged) when the edge already exists.  Raises [Invalid_argument] on a
    self-loop or out-of-range id. *)

val remove_edge : t -> int -> int -> bool
(** Returns [false] when the edge was absent. *)

val mem_edge : t -> int -> int -> bool
val mem_edge_key : t -> Edge_key.t -> bool

val degree : t -> int -> int
(** Degree of the node; [0] for a node never seen. *)

val num_edges : t -> int

val num_nodes : t -> int
(** Number of nodes that currently have at least one incident edge. *)

val max_node_id : t -> int
(** Largest node id ever touched; [-1] for the empty graph. *)

val iter_nodes : t -> (int -> unit) -> unit
(** Every node with degree at least one, in ascending order.  Walks every
    id up to {!max_node_id}, so it costs O(max node id) however few nodes
    have edges. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val neighbors : t -> int -> int list

val iter_edges : t -> (int -> int -> unit) -> unit
(** Each undirected edge exactly once, as [(u, v)] with [u < v]. *)

val edges : t -> Edge_key.t list

val edge_array : t -> Edge_key.t array

val iter_common_neighbors : t -> int -> int -> (int -> unit) -> unit
(** [iter_common_neighbors g u v f] calls [f w] for every triangle
    [{u, v, w}]; iterates the smaller adjacency and probes the larger. *)

val count_common_neighbors : t -> int -> int -> int
(** Support of the edge [{u, v}] in [g] (the edge itself need not exist). *)

val of_edges : (int * int) list -> t
val of_edge_keys : Edge_key.t list -> t

val subgraph_of_edges : t -> Edge_key.t list -> t
(** Graph containing exactly the listed edges of [g] (edges absent from [g]
    are included too — the function just builds a graph from the keys). *)

val add_edges : t -> (int * int) list -> int
(** Inserts the list; returns how many were actually new. *)

val remove_edges : t -> (int * int) list -> int

val equal : t -> t -> bool
(** Same edge sets. *)
