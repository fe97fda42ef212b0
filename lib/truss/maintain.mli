(** Incremental k-truss maintenance on frozen {!Csr} snapshots.

    One engine serves plan scoring and the service's edge batches.  A
    batch is seen through a view of the snapshot: deleted edges are
    flagged, the new edges are numbered after the snapshot's, and all state
    lives in flat arrays over those edge ids, so neither the snapshot nor
    any graph is ever written.  Two kernels run on a view:

    - insertions only grow the k-truss, and every promoted edge is
      triangle-connected (inside the new truss) to an inserted edge, so
      growing a region from the inserted edges over triangles whose edges
      all reach support [k - 2], then peeling it against the old truss as
      an unpeelable backdrop, is exact;
    - deletions only shrink the k-truss, so cascading from the deleted
      edges' neighbors over the old truss is exact.

    A fixed-k peel of the whole updated graph gives the same answers and
    is the test oracle. *)

open Graphcore

type delta = {
  promoted : Edge_key.t list;
      (** edges of the new k-truss that were not in the old one (inserted
          edges that made it into the truss included) *)
  new_size : int;  (** total edge count of the new k-truss *)
}

val k_truss_after_insert_csr :
  csr:Csr.t -> old_truss:bool array -> k:int -> inserted:(int * int) list -> delta
(** The k-truss delta of inserting the pairs into the snapshot: [csr] is
    the graph without the inserted edges and [old_truss.(e)] says whether
    snapshot edge [e] is in its k-truss.  Self-loops, duplicate pairs and
    pairs already in [csr] are ignored; endpoints above {!Csr.max_node_id}
    are new nodes.  Promoted keys are in [csr]'s node ids.  Costs O(m) for
    the state arrays plus the work of the region. *)

type batch_result = {
  changes : (Edge_key.t * int option) list;
      (** new trussness per changed edge — [(key, Some tau)] for edges
          whose trussness moved (inserted edges included), [(key, None)]
          for deleted edges; feed to {!Index.of_deltas} /
          {!Decompose.patched} *)
  levels : int;  (** truss levels examined *)
  region_edges : int;
      (** total promoted + demoted edges across all levels — the size of
          the work the incremental pass actually did *)
}

val batch_update_csr :
  csr:Csr.t ->
  tau:(Edge_key.t -> int option) ->
  kmax:int ->
  inserted:(int * int) list ->
  deleted:(int * int) list ->
  batch_result
(** Full-trussness delta of one batch against the frozen snapshot.  Per
    level [k], ascending from 3 until past [kmax] with nothing promoted,
    the deletion cascade runs on [G \ deleted], then the region-grow-and-
    peel on [(G \ deleted) ∪ inserted] with the surviving old truss as
    backdrop; work per level is proportional to the affected region, and
    [tau] is read once per edge the batch touches.

    Preconditions (the mutation log normalizes raw batches to meet them):
    [inserted] edges are absent from the snapshot, [deleted] edges present,
    the two lists are disjoint and duplicate-free, and no pair is a
    self-loop.  [tau] is the base trussness ([None] for absent edges),
    [kmax] its maximum.  Any number of readers may keep querying the base
    epoch while this runs. *)
