(** Random interpolation of a component's exp-revenue (Algorithm 1).

    Repeatedly draws a random budget and a random candidate subset, inserts
    it, and records which inserted edges actually survive into the k-truss
    (the real cost) against the verified score.  Effective for converting
    the (k-1)-class, ineffective for deeper classes — which is exactly the
    behaviour the paper reports and the reason the min-cut method exists. *)

open Graphcore

val interpolate :
  rng:Rng.t ->
  ctx:Score.ctx ->
  component:Edge_key.t list ->
  budget:int ->
  repeats:int ->
  ?forbidden:Graph.t ->
  unit ->
  Plan.revenue
(** [repeats] is the [r] of the paper (their experiments fix r = 10).
    Each repeat draws from the component's whole {!Candidate.pool}.
    When [ctx] is a component-local context ({!Score.local_ctx}), pass the
    global graph as [forbidden] so candidates that already exist globally
    are never drawn. *)
