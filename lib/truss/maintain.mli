(** Incremental k-truss maintenance under edge insertions.

    Inserting edges can only grow the k-truss, and every promoted edge is
    triangle-connected (inside the new truss) to some inserted edge.  So the
    new truss can be computed exactly by (1) growing a candidate region from
    the inserted edges over triangle adjacency, filtered to edges whose
    support in the updated graph reaches [k - 2], then (2) peeling that
    region with the old truss as an unpeelable backdrop.  A fixed-k peel of
    the whole updated graph gives the same answer and is the test oracle.

    Two implementations compute it: {!k_truss_after_insert} on a mutable
    {!Graph} (used by GTM, which commits into its own graphs, and by the
    streaming example) and {!k_truss_after_insert_csr} on a frozen {!Csr}
    snapshot, which is what PCFR's plan scoring runs. *)

open Graphcore

type delta = {
  promoted : Edge_key.t list;
      (** edges of the new k-truss that were not in the old one (inserted
          edges that made it into the truss included) *)
  new_size : int;  (** total edge count of the new k-truss *)
}

type delta_del = {
  demoted : Edge_key.t list;
      (** edges of the old k-truss no longer in the new one (deleted truss
          edges included) *)
  remaining : int;  (** total edge count of the new k-truss *)
}

val k_truss_after_insert :
  g:Graph.t ->
  old_truss:(Edge_key.t, unit) Hashtbl.t ->
  k:int ->
  inserted:(int * int) list ->
  delta
(** [g] must be the graph {e without} the inserted edges; it is mutated
    during the computation but restored before returning.  [old_truss] must
    be the k-truss edge set of [g].  Inserted pairs already present in [g]
    are ignored.

    {b Warning — not safe under sharing:} because [g] is temporarily
    mutated (edges inserted, then removed again), no other code may read
    [g] concurrently, and a raised exception from a malformed input leaves
    [g] with the batch applied.  Call sites that share the graph across
    domains — the service layer's epoch snapshots in particular — must use
    {!batch_update_csr}, which never touches the graph. *)

val k_truss_after_insert_csr :
  csr:Csr.t -> old_truss:bool array -> k:int -> inserted:(int * int) list -> delta
(** {!k_truss_after_insert} against a frozen snapshot, with the same
    result: [csr] is the graph without the inserted edges and
    [old_truss.(e)] says whether snapshot edge [e] is in its k-truss.
    Self-loops, duplicate pairs and pairs already in [csr] are ignored;
    endpoints above {!Csr.max_node_id} are new nodes.  Promoted keys are in
    [csr]'s node ids.  Pure: the plan's edges are numbered after the
    snapshot's, and the state of the computation lives in arrays over
    those ids, so neither [csr] nor [old_truss] is touched.  Costs O(m)
    for the state arrays plus the work of the region. *)

val k_truss_after_delete :
  g:Graph.t ->
  old_truss:(Edge_key.t, unit) Hashtbl.t ->
  k:int ->
  deleted:(int * int) list ->
  delta_del
(** Symmetric to insertion: deletions only shrink the k-truss, and every
    demoted edge is triangle-connected (inside the old truss) to a deleted
    edge, so growing a region from the deletions and peeling it against the
    untouched remainder is exact.  [g] must be the graph {e with} the edges
    still present; it is mutated during the computation but restored.
    Deleted pairs absent from [g] are ignored.

    {b Warning — not safe under sharing:} mutate-and-restore, same caveat
    as {!k_truss_after_insert}; use {!batch_update_csr} when the graph is
    visible to concurrent readers. *)

val insert_and_decompose : Graph.t -> (int * int) list -> Decompose.t
(** Reference path: mutate [g] by inserting the edges (permanently) and run
    a full decomposition on the result. *)

(** {2 Pure CSR-backed batch maintenance}

    The entry point the service layer's mutation log uses: the base graph
    stays frozen in a {!Csr} snapshot, the batch lives in a small
    functional overlay (base adjacency minus deletions plus insertions),
    and the whole trussness function is maintained — not just one k level.
    Per level [k] the exact two-phase delta runs: the deletion cascade of
    {!k_truss_after_delete} against [G \ deleted], then the
    region-grow-and-peel of {!k_truss_after_insert} against
    [(G \ deleted) ∪ inserted] with the deletion survivors as backdrop.
    Levels ascend from 3 until the new k-truss is empty; work per level is
    proportional to the affected region, not the graph. *)

(** The functional adjacency view the batch maintenance peels against:
    a frozen {!Csr} base plus insertion/deletion sets.  Exposed for tests
    and for {!level_delta_csr}. *)
module Overlay : sig
  type t

  val make : csr:Csr.t -> inserted:(int * int) list -> deleted:(int * int) list -> t

  val mem : t -> int -> int -> bool

  val iter_neighbors : t -> int -> (int -> unit) -> unit

  val iter_common_neighbors : t -> int -> int -> (int -> unit) -> unit

  val count_common_neighbors : t -> int -> int -> int
end

type level_delta = {
  lvl_promoted : Edge_key.t list;
      (** edges of the new k-truss not in the old one *)
  lvl_demoted : Edge_key.t list;
      (** edges of the old k-truss not in the new one (deleted truss edges
          included) *)
}

val level_delta_csr :
  ov_mid:Overlay.t ->
  ov_full:Overlay.t ->
  tau:(Edge_key.t -> int) ->
  k:int ->
  inserted:(int * int) list ->
  deleted:(int * int) list ->
  level_delta
(** One level of {!batch_update_csr}, exposed for tests.  [ov_mid] must be
    the overlay with only the deletions applied, [ov_full] the one with
    deletions and insertions; [tau] the base graph's trussness (0 for
    absent edges). *)

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
(** Full-trussness delta of one batch against the frozen snapshot.

    Preconditions (the mutation log normalizes raw batches to meet them):
    [inserted] edges are absent from the snapshot, [deleted] edges present,
    the two lists are disjoint and duplicate-free, and no pair is a
    self-loop.  [tau] is the base trussness ([None] for absent edges),
    [kmax] its maximum.  Pure: neither the snapshot nor any graph is
    mutated, so any number of readers may keep querying the base epoch
    while this runs. *)
