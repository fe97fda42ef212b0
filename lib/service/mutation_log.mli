(** Edge-mutation batches applied against the current epoch.

    A batch of raw insert/delete ops is first normalized against the
    epoch's snapshot — replayed in order so later ops can cancel earlier
    ones, self-loops, duplicates and no-ops dropped — into the net
    insertion/deletion sets {!Truss.Maintain.batch_update_csr} requires.
    Small batches then go through the incremental maintenance path
    (trussness deltas patched into the decomposition and index, no
    re-peeling); batches whose net changes exceed a quarter of the
    snapshot's edges fall back to a full {!Truss.Decompose.of_csr} rebuild,
    counted by [service.maintain_fallbacks].  Either way a fresh epoch is
    published with [generation + 1]; readers of the old epoch are
    untouched. *)

type op = Insert of int * int | Delete of int * int

type outcome = {
  epoch : Epoch.t;  (** the newly published epoch *)
  inserted : int;  (** net edges inserted *)
  deleted : int;  (** net edges deleted *)
  ignored : int;  (** ops dropped by normalization (no-ops, self-loops) *)
  fallback : bool;  (** the batch took the full-rebuild path *)
  levels : int;  (** truss levels the incremental pass examined (0 on fallback) *)
  region_edges : int;  (** promoted+demoted edges the incremental pass touched *)
}

val fallback_count : unit -> int
(** Process-lifetime count of batches that took the full-rebuild path
    (mirrors the [service.maintain_fallbacks] Obs counter, but counts even
    while Obs collection is disabled). *)

val apply : Store.t -> op list -> outcome
(** Normalize the ops against the latest epoch, build the next epoch, and
    publish it (serialized with any other writer by the store's mutex).
    A batch that normalizes to nothing still publishes a restamped epoch
    (same structures, next generation), so every [apply] is observable. *)
