(** Verified scoring of insertion plans.

    The score of a plan is the number of edges that are in the k-truss of
    the updated graph but not in the k-truss of the original graph
    (inserted edges that made it into the truss count too) — exactly the
    quantity the paper's experiments report.  Every plan the maximization
    algorithms emit is scored through this module, never trusted from
    flow-graph estimates. *)

open Graphcore

type ctx = {
  g : Graph.t;  (** the working graph; mutated only transiently *)
  k : int;
  old_truss : (Edge_key.t, unit) Hashtbl.t;  (** k-truss edge set of [g] *)
}

val ctx_of_dec : Graph.t -> Truss.Decompose.t -> k:int -> ctx
(** Context whose baseline k-truss is read off [dec], which must be the
    decomposition of [g] itself.  The context stays valid until [g] is
    permanently mutated; rebuild it after committing insertions. *)

val make_ctx : Graph.t -> k:int -> ctx
(** [ctx_of_dec g (Truss.Decompose.run g) ~k]. *)

val evaluate : ctx -> (int * int) list -> Truss.Maintain.delta
(** Incremental evaluation of a candidate insertion (graph restored before
    returning). *)

val local_ctx : ctx -> component:Edge_key.t list -> ctx
(** Context restricted to one component's neighborhood [H = T_k ∪ E_c]
    (see {!Truss.Onion.build_h}).  Scoring a plan against it is exact for
    promotions inside the component — the only ones a component plan can
    cause, by triangle-connectivity independence — and orders of magnitude
    cheaper than scoring against the whole graph.  Plans must only insert
    edges between [H]'s nodes (all plans produced by this library do). *)

val score : ctx -> (int * int) list -> int
(** [List.length (evaluate ctx p).promoted]. *)

val evaluate_oracle :
  ?dec:Truss.Decompose.t -> Graph.t -> k:int -> inserted:(int * int) list -> int
(** Independent full recomputation — the test oracle for {!evaluate}: a
    fresh {!Truss.Decompose.run} of a copy of [g] with the insertions,
    counted against the k-truss of [g].  That baseline is read off [dec]
    when given (it must be the decomposition of [g] itself, as PCFR's
    first level computes it) and decomposed from [g] otherwise. *)

val pairs_of_keys : Edge_key.t list -> (int * int) list
val keys_of_pairs : (int * int) list -> Edge_key.t list
