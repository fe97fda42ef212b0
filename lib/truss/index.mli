(** Immutable trussness index for fast repeated truss queries.

    A decomposition answers "which edges form the k-truss" by a linear
    scan; the index sorts edges by trussness once so every later query is
    O(answer).  PCFR's level loop and the community-search example issue
    many such queries against the same decomposition. *)

open Graphcore

type t

val build : Decompose.t -> t
(** Sorts the decomposition's edges by trussness.  The index keeps [dec]
    itself (no copy of its trussness table); {!trussness} reads it. *)

val of_deltas : t -> changes:(Edge_key.t * int option) list -> t
(** [build (Decompose.patched (decompose t) ~changes)]: [(key, Some tau)]
    sets the edge's trussness (inserting it when new), [(key, None)]
    removes the edge; [t] itself is untouched.  The result answers every
    query exactly as [build (Decompose.run g')] on the updated graph would
    — provided the deltas came from a correct maintenance pass
    ({!Maintain}).  Cost is one table copy plus O(m log m) for the resort
    — independent of how expensive the peeling the deltas replaced would
    have been. *)

val decompose : t -> Decompose.t
(** The decomposition the index was built from. *)

val trussness : t -> Edge_key.t -> int option

val kmax : t -> int

val truss_edges : t -> int -> Edge_key.t list
(** Edges with trussness at least [k], O(answer). *)

val k_class : t -> int -> Edge_key.t list
(** Edges with trussness exactly [k], O(answer). *)

val truss_size : t -> int -> int
(** |T_k| in O(1). *)

val class_bounds : t -> (int * int) list
(** [(k, |T_k|)] for every k from 2 to kmax. *)
