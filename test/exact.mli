(** Exhaustive truss maximization for tiny instances: the optimality-gap
    tests' oracle.

    Truss maximization is NP-hard, so no algorithm in [lib/] is optimal in
    general.  This brute-force solver enumerates every insertion set of
    size at most [b] over a candidate pool and keeps the verified best —
    usable only for graphs with a handful of candidate non-edges. *)

open Graphcore

type result = {
  score : int;
  inserted : Edge_key.t list;
  explored : int;  (** number of insertion sets evaluated *)
}

val optimum :
  g:Graph.t ->
  k:int ->
  budget:int ->
  ?pool:Edge_key.t list ->
  ?max_sets:int ->
  unit ->
  result
(** [pool] defaults to every non-edge over the graph's nodes; [max_sets]
    (default 2_000_000) aborts with [Invalid_argument] when the search
    space is larger — this solver is for tests, not production. *)

val pool_size : g:Graph.t -> int
(** Number of non-edges the default pool would contain. *)
