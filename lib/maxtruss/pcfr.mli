(** PCFR — the paper's framework (Algorithm 5): partial conversion by
    random interpolation and min-cut sweeps, multi-plan budget-assignment
    DP, descending through (k-h)-truss levels while budget remains.

    The two ablations of the experiments are flag settings:
    - PCF ([use_random = false]): min-cut plans only;
    - PCR ([use_flow = false]): random plans only, at every level;
    - PCFR (both): random plans for the (k-1)-class, min-cut plans
      everywhere — the paper's full algorithm.

    The DP variant switches automatically: Sorted DP when the remaining
    budget is below the component count, Sequential DP otherwise (the
    policy Section V-E prescribes). *)

open Graphcore

type config = {
  k : int;
  budget : int;
  repeats : int;  (** r of Algorithm 1; the paper uses 10 *)
  w_pairs : (int * int) list;  (** (w1, w2) settings; the paper uses (1,1) and (1,10) *)
  g_probes : int;  (** min-cut evaluations per sweep; the paper uses 10 *)
  use_random : bool;
  use_flow : bool;
  max_h : int;
      (** deepest (k-h) level to descend to; capped at k-2.  Default
          [min 3 (k-2)] — deeper classes are enormous and convert poorly *)
  seed : int;
  min_level_budget : int;
      (** do not descend to a deeper (k-h) level with less remaining budget
          than this (default 4): processing a whole level for a couple of
          leftover edges costs far more than it can return *)
}

val default_config : k:int -> budget:int -> config

type level_stat = {
  h : int;
  components : int;
  plans : int;  (** total exp-revenue pairs across the level's menus *)
  inserted : int;  (** edges committed at this level *)
  gain : int;  (** verified score gained at this level *)
}

type result = { outcome : Outcome.t; levels : level_stat list }
(** PCFR runs to completion: its [outcome.timed_out] is always false. *)

val run : config -> Graph.t -> result
(** [g] is not modified: the first level reads it as it is, and the first
    later level that needs committed insertions copies it. *)

val pcfr :
  ?seed:int -> ?g_probes:int -> g:Graph.t -> k:int -> budget:int -> unit -> result

val pcf :
  ?seed:int -> ?g_probes:int -> g:Graph.t -> k:int -> budget:int -> unit -> result

val pcr :
  ?seed:int -> ?g_probes:int -> g:Graph.t -> k:int -> budget:int -> unit -> result
(** [?g_probes] overrides {!config.g_probes} (min-cut evaluations per
    sweep; default 10, must be >= 1). *)

val component_revenue :
  rng:Rng.t ->
  ctx:Score.ctx ->
  dec:Truss.Decompose.t ->
  config:config ->
  budget:int ->
  component:Edge_key.t list ->
  Plan.revenue
(** The Phase-I menu of one component (random + min-cut plans, scored on
    the component's local frame and normalized): the one-component case of
    the function that builds every level's menus in {!run}.  Called once
    per component, in component order and on one [rng], it rebuilds a
    level's menus exactly; Table V's bench and the DP tests use it for raw
    menus. *)

val component_dag :
  lctx:Score.ctx ->
  dec:Truss.Decompose.t ->
  component:Edge_key.t list ->
  Truss.Onion.layers * Block_dag.t
(** The onion peel and block DAG PCFR builds for a component, on the frame
    of its local context [lctx = Score.local_ctx ctx ~component]: the
    conversion subgraph of {!Truss.Onion.build_h} is the frame edges that
    are component edges or in [ctx.old_truss].  Layers are indexed by frame
    edge id ({!Score.frame_edge_id}).  Exposed so tests can hold it to the
    [~h] adapters {!Truss.Onion.peel} and {!Block_dag.build}. *)
