(** A frozen, self-consistent snapshot of the service's graph state: the
    graph, its {!Graphcore.Csr} snapshot, the full truss decomposition, the
    query index, and a monotonically increasing generation stamp.

    Epochs are immutable after construction — every field is read-only from
    the moment a {!Store} publishes one, so any number of reader domains
    may query the same epoch concurrently while a writer builds the next.
    The only internal mutability is a memo table for onion layers,
    protected by a mutex (and idempotent anyway, since the peel is a pure
    function of the epoch). *)

open Graphcore

type t

val create : ?generation:int -> Graph.t -> t
(** Freeze a graph into a fresh epoch: copies [g] (the caller's graph is
    never retained), builds the CSR snapshot, runs a full decomposition and
    builds the index.  [generation] defaults to 0. *)

val make : graph:Graph.t -> csr:Csr.t -> index:Truss.Index.t -> generation:int -> t
(** Assemble an epoch from parts the caller has already built (the
    mutation log's incremental path).  Ownership of [graph] transfers to
    the epoch: the caller must never mutate it afterwards, and [csr] and
    [index] (with the decomposition it holds) must both describe exactly
    [graph]'s edge set. *)

val graph : t -> Graph.t
(** The epoch's graph.  {b Read-only:} mutating it corrupts every reader
    of this epoch; callers that need a mutable graph must {!Graph.copy}
    it.  Nothing in the library writes to it; [maximize] requests still
    run on a copy, because PCFR's component tie order follows the
    hashtable order of the graph it is handed. *)

val csr : t -> Csr.t

val decompose : t -> Truss.Decompose.t
(** The decomposition the index was built from ({!Truss.Index.decompose}):
    an epoch holds one trussness table. *)

val index : t -> Truss.Index.t
val generation : t -> int
val num_nodes : t -> int
val num_edges : t -> int
val kmax : t -> int

val onion_layers : t -> k:int -> (Edge_key.t * int) list * int
(** Onion layers of the (k-1)-class toward the k-truss (Definition 5):
    [(edges_with_layers, max_layer)], edges sorted by (layer, key).
    Memoized per [k] inside the epoch; safe from any domain.  Empty for
    [k < 3] or an empty (k-1)-class. *)
