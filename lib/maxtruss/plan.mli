(** Exp-revenue insertion candidates (Definition 4 of the paper).

    A [pair] is one conversion plan for a component: the set of new edges to
    insert and the verified number of new k-truss edges that insertion
    yields.  A [revenue] is the component's menu of plans, normalized so
    that both cost and score are strictly increasing — a plan dominated by a
    cheaper-or-equal plan with the same or higher score is dropped, exactly
    the pruning of Algorithm 1 line 10. *)

open Graphcore

type pair = {
  inserted : Edge_key.t list;  (** the new edges P of the plan *)
  cost : int;  (** |P| — budget the plan consumes *)
  score : int;  (** verified number of new k-truss edges *)
}

type revenue = pair list
(** Sorted by cost ascending; costs and scores strictly increasing; every
    pair has [cost >= 1] and [score >= 1]. *)

val make : inserted:Edge_key.t list -> score:int -> pair

val normalize : pair list -> revenue
(** Deduplicate and enforce the strictly-increasing invariant.  When more
    than 120 plans survive, the menu is thinned evenly to 120 while keeping
    the cheapest and the highest-scoring plan. *)

val score_at : revenue -> int -> int
(** [score_at r x] = best score among plans with cost [<= x]; 0 if none —
    the step function [S_c] of the paper. *)

val best_within : revenue -> int -> pair option
(** Best plan with cost [<= x]. *)

val max_pair : revenue -> pair option
(** The highest-scoring (= most expensive) plan. *)

val costs : revenue -> int list

val is_normalized : revenue -> bool

val pp : Format.formatter -> revenue -> unit
