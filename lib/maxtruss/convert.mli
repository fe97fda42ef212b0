(** Complete conversion of a chosen edge set into the k-truss
    (Algorithm 2 plus the Clique and Greedy strategies).

    Given a target subset [S] of a component, find new edges [P] whose
    insertion drags every edge of [S] (and of [P]) into the k-truss:

    + compute the component-based support CSup (Definition 6) of every
      target edge inside [H = T_k ∪ S];
    + greedily insert stable candidate edges that cover the most unstable
      targets;
    + finish off stragglers with whichever of the Clique strategy (embed the
      edge into a k-clique, the smallest k-truss) or the cascading Greedy
      strategy is cheaper.

    The result is a {e proposed} plan; callers verify its actual score with
    {!Score.evaluate} — the paper makes the same distinction between the
    estimated cut cost and the real budget charged. *)

open Graphcore

type outcome = {
  plan : (int * int) list;  (** new edges to insert *)
  clique_fallbacks : int;  (** targets that needed the clique strategy *)
  greedy_fallbacks : int;  (** targets finished by the cascading greedy *)
}

val convert : ctx:Score.ctx -> target:Edge_key.t list -> unit -> outcome
(** The clique strategy recruits from the nodes of [H], their neighbors in
    [ctx.g], and — when those are fewer than [2k] — further nodes of
    [ctx.g]. *)

val csup : h:Graph.t -> Edge_key.t list -> (Edge_key.t, int) Hashtbl.t
(** Component-based support of the target edges inside a prepared [H]
    subgraph — exposed for tests and the DAG-size experiment. *)

val clique_plan :
  g:Graph.t -> h:Graph.t -> k:int -> pool:int array -> Edge_key.t -> Edge_key.t list option
(** The Clique strategy for one straggler [(u, v)]: recruit [k - 2] nodes
    from [pool] (sorted ascending, duplicate-free), each time the one with
    the most [h]-neighbors among [u], [v] and the earlier recruits, ties to
    the smallest id; return the missing pairs of the resulting k-clique
    (sorted), or [None] when the pool runs out.  Exposed for tests. *)
