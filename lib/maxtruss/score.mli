(** Verified scoring of insertion plans.

    The score of a plan is the number of edges that are in the k-truss of
    the updated graph but not in the k-truss of the original graph
    (inserted edges that made it into the truss count too) — exactly the
    quantity the paper's experiments report.  Every plan the maximization
    algorithms emit is scored through this module, never trusted from
    flow-graph estimates. *)

open Graphcore

type frame
(** A context's scoring graph frozen into a {!Csr} snapshot, with its
    baseline k-truss marked by edge id. *)

type ctx = {
  g : Graph.t;  (** the graph plans are scored against *)
  k : int;
  old_truss : (Edge_key.t, unit) Hashtbl.t;
      (** k-truss edge set of [g]; a {!local_ctx} keeps its parent's table *)
  frame : frame;  (** [g] and the [old_truss] edges in it, frozen *)
}
(** A context is immutable after construction: nothing in this library
    writes to its [g] or [old_truss] while the context is in use, and
    callers must not either, since [frame] describes them as they were when
    the context was built.  (PCFR commits a level's insertions into its
    working graph only after the level's last score.) *)

val ctx_of_dec : Graph.t -> Csr.t -> Truss.Decompose.t -> k:int -> ctx
(** [ctx_of_dec g csr dec ~k]: the context over [g] whose baseline k-truss
    is read off [dec].  [csr] must be the snapshot of [g] and [dec] its
    decomposition ({!Pcfr.run} builds both for each level); the context
    keeps [csr] as its frame.  It stays valid until [g] is mutated; build
    a new one after committing insertions. *)

val make_ctx : Graph.t -> k:int -> ctx
(** [ctx_of_dec g csr (Truss.Decompose.of_csr csr) ~k] with
    [csr = Csr.of_graph g]. *)

val evaluate : ctx -> (int * int) list -> Truss.Maintain.delta
(** The k-truss delta of inserting the pairs into [ctx.g]: the
    region-grow-and-peel of {!Truss.Maintain.k_truss_after_insert_csr} on
    the context's frame, with the plan's endpoints translated to frame
    nodes and the promoted edges back to graph ids.  Self-loops, duplicate
    pairs and pairs already in [ctx.g] are ignored; endpoints outside
    [ctx.g] are new nodes.  Mutates nothing. *)

val local_ctx : ctx -> component:Edge_key.t list -> ctx
(** Context restricted to one component's neighborhood: the component's
    edges plus every edge of [ctx.g] incident to a component node (which
    includes every backdrop edge {!Truss.Onion.build_h} would add), frozen
    into a compact frame whose node ids are the subgraph's nodes renamed
    [0 .. n-1] in ascending order.  Scoring a plan against it is exact for
    promotions inside the component — the only ones a component plan can
    cause, by triangle-connectivity independence — and orders of magnitude
    cheaper than scoring against the whole graph.  Plans may insert edges
    to nodes outside the neighborhood (conversion recruits clique members
    from the neighbors' neighbors, and further afield in sparse corners);
    such nodes join the frame as new nodes for the one evaluation.  The
    local context keeps [ctx.old_truss], T_k of the parent graph, rather
    than a table of its own; its frame marks the edges of that table that
    lie in the neighborhood. *)

val frame_csr : ctx -> Csr.t
(** The context's frame snapshot.  A {!local_ctx}'s frame numbers its nodes
    [0 .. n-1]; use {!frame_edge_id} to find an edge in it. *)

val in_truss : ctx -> int -> bool
(** Whether a frame edge id lies in [ctx.old_truss]. *)

val frame_edge_id : ctx -> Edge_key.t -> int
(** Frame edge id of an edge of [ctx.g]; [-1] when the edge is not in it. *)

val score : ctx -> (int * int) list -> int
(** [List.length (evaluate ctx p).promoted]. *)

val evaluate_oracle :
  ?snapshot:Csr.t * Truss.Decompose.t -> Graph.t -> k:int -> inserted:(int * int) list -> int
(** Independent full recomputation — the test oracle for {!evaluate}: a
    fresh {!Truss.Decompose.of_csr} of the snapshot of [g] with the
    insertions merged in ({!Csr.add_edges}), counted against the k-truss of
    [g].  [snapshot] is [g]'s snapshot together with its decomposition, as
    PCFR's first level builds them; without it the oracle snapshots and
    decomposes [g] once.  [g] is never copied or modified. *)

val pairs_of_keys : Edge_key.t list -> (int * int) list
val keys_of_pairs : (int * int) list -> Edge_key.t list
