(** The competitor algorithms of the paper's evaluation: RD, GTM and CBTM
    (all from Sun et al., CIKM 2021).

    - {!rd}: draw [b] random candidates with sufficient support and insert
      them blindly — fast, low score.
    - {!gtm}: per-edge greedy: repeatedly insert the candidate with the best
      immediate verified gain (support-based tie-break while gains are
      zero).  Orders of magnitude slower; bounded by a time guard like the
      paper's 24-hour cutoff.
    - {!cbtm}: the component-based state of the art: full conversion of
      every (k-1)-class component, then a binary 0-1 knapsack over the
      per-component (cost, score) pairs. *)

open Graphcore

val rd : rng:Rng.t -> g:Graph.t -> k:int -> budget:int -> Outcome.t

val gtm : g:Graph.t -> k:int -> budget:int -> ?time_limit_s:float -> unit -> Outcome.t
(** Each component's candidate pool is cut to its [max 20 (400 / components)]
    highest-support pairs.  [time_limit_s] defaults to 120 s. *)

val cbtm : g:Graph.t -> k:int -> budget:int -> Outcome.t

val cbtm_revenues : g:Graph.t -> k:int -> budget:int -> Plan.revenue array
(** The single-pair menus CBTM feeds its binary DP; [test_baselines]
    calls it to check that each menu holds at most one plan. *)
