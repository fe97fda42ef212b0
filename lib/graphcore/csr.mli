(** Immutable compressed-sparse-row snapshot of a {!Graph}.

    The mutable hash-set adjacency of {!Graph} is ideal for edge churn but
    pays a hash probe per neighbor test; the triangle-heavy truss kernels
    (support counting, decomposition, onion peeling) spend nearly all their
    time in common-neighbor intersection, where sorted int-array adjacency
    with merge/gallop intersection is typically an order of magnitude
    faster.  [Csr.of_graph] freezes the graph into that layout; the snapshot
    is immutable, so kernels track deletions with flat [alive] arrays
    indexed by edge id instead of mutating the structure.

    {2 Edge ids}

    Every undirected edge [(u, v)] with [u < v] gets a dense id in
    [\[0, num_edges)]: edges are numbered in lexicographic [(u, v)] order —
    id = (number of edges [(u', v')] with [u' < u]) + rank of [v] among the
    sorted neighbors of [u] greater than [u].  Flat [int array]s indexed by
    edge id replace [(Edge_key.t, int) Hashtbl.t] in the kernels.

    {2 Orientation}

    For triangle enumeration the snapshot also stores a degree-ordered
    orientation: nodes are ranked by (degree, id) and each node's oriented
    row holds only its higher-ranked neighbors, sorted by rank.  Every
    triangle then appears exactly once as an oriented wedge intersection,
    and the total oriented work is O(sum of min-degree per edge) — the
    arboricity-style bound of Chiba–Nishizeki.  The orientation is built
    lazily on the first {!iter_triangles}/{!triangle_count} call, so
    consumers that only intersect (onion peel, conversion support) skip
    its cost. *)

type t

val of_graph : Graph.t -> t
(** Freeze the current edges of the graph.  O(max node id + m log d) build
    time: the rows are indexed by node id, so the snapshot of a small graph
    over large ids still pays for every id below its largest. *)

val of_graph_dense : Graph.t -> t * int array
(** [of_graph_dense g] freezes [g] with its nodes renamed to dense ids
    [0 .. n-1] in ascending order of their ids in [g], and returns the
    snapshot with [label], where [label.(i)] is the [g] id of snapshot node
    [i].  The renaming is monotone, so snapshot edge ids enumerate [g]'s
    edges in lexicographic order.  Costs O(max node id of [g] + m log d),
    and the snapshot's arrays are sized to [g]'s node and edge counts. *)

val find_label : int array -> int -> int
(** [find_label label x] is the snapshot node of [g] node [x] in a snapshot
    from {!of_graph_dense}, found by binary search in its [label]; [-1]
    when [x] is not one of its nodes. *)

val add_edges : t -> (int * int) list -> t * (int * int) list
(** [add_edges t pairs] is the snapshot of [t]'s graph with [pairs]
    inserted, equal to {!of_graph} of that graph, together with the pairs
    that were absent from [t]: self-loops, duplicates and present edges are
    dropped, each pair is returned as [(u, v)] with [u < v], in ascending
    order.  Node ids above {!max_node_id} extend the snapshot.  [t] is not
    modified: untouched rows are copied in blits, and only the rows of new
    edges' endpoints are merged, in O(n + m + p log p) for [p] pairs plus
    the edge numbering {!of_graph} also pays.  Raises [Invalid_argument] on
    ids outside [\[0, Edge_key.max_node)]. *)

val num_nodes : t -> int
(** Nodes with degree at least one (same counting as {!Graph.num_nodes}). *)

val num_edges : t -> int

val max_node_id : t -> int
(** Largest node id with an adjacency slot; [-1] for the empty snapshot. *)

val degree : t -> int -> int
(** Degree of a node; [0] for ids outside the snapshot. *)

val mem_edge : t -> int -> int -> bool
(** Binary search in the smaller endpoint row: O(log min-degree). *)

val edge_id : t -> int -> int -> int
(** Dense id of an existing edge; [-1] when the edge is absent. *)

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of an edge id.  O(1). *)

val edge_key : t -> int -> Edge_key.t
(** {!Edge_key} of an edge id. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Neighbors in ascending order. *)

val iter_neighbors_eid : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors_eid t u f] calls [f v eid] for each neighbor [v] (in
    ascending order) with the edge id of [(u, v)]. *)

val iter_common_neighbors_eid : t -> int -> int -> (int -> int -> int -> unit) -> unit
(** [iter_common_neighbors_eid t u v f] calls [f w e_uw e_vw] for every
    common neighbor [w], passing the edge ids of [(u, w)] and [(v, w)].
    Sorted-row intersection: linear two-pointer merge for comparable
    degrees, galloping (exponential probe + binary search) into the longer
    row when the degrees are badly skewed. *)

val count_common_neighbors : t -> int -> int -> int
(** Support of the edge [(u, v)] (the edge itself need not exist). *)

val iter_triangles : t -> (int -> int -> int -> unit) -> unit
(** [iter_triangles t f] calls [f e_uv e_uw e_vw] exactly once per triangle
    [{u, v, w}], via the degree-ordered orientation. *)

val triangle_count : t -> int

(** {2 Chunked triangle enumeration (for the parallel kernels)} *)

val prepare_triangles : t -> unit
(** Force the lazy orientation now.  Lazy forcing is not safe to race from
    several domains, so parallel consumers must call this on one domain
    before handing the snapshot to concurrent {!iter_triangles_range}
    calls (which then only read the already-forced value). *)

val iter_triangles_range : t -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** {!iter_triangles} restricted to wedges pivoted at the smaller-ranked
    endpoint's node ids in [\[lo, hi)]; the ranges of a partition of
    [\[0, max_node_id + 1)] enumerate each triangle exactly once between
    them.  Read-only on the snapshot — safe to run concurrently after
    {!prepare_triangles}. *)

val triangle_range_bounds : t -> chunks:int -> int array
(** [chunks + 1] monotone vertex boundaries [b] with [b.(0) = 0] and
    [b.(chunks) = max_node_id + 1], balanced by oriented out-degree prefix
    sums so each [\[b.(i), b.(i+1))] range carries comparable triangle
    work.  Forces the orientation. *)
