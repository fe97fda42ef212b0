(** Warm-started parametric maximum flow (GGT-style), for solving a family
    of min-cut problems that differ only in monotone arc capacities.

    The truss g-sweep ({!Maxtruss.Flow_plan.sweep}) solves, per block DAG
    and (w1, w2) weighting, one min-cut problem per probed gate value [g] —
    networks identical except for the block->sink "gate" arcs, whose
    capacities [base + max 0 (g - offset)] are nondecreasing in [g].  This
    module builds that network {e once}: fixed arcs ({!add_arc}) and gate
    arcs ({!add_gate}) are added up front, and {!solve} retunes only the
    gate capacities between probes.

    Warm-start invariant: any feasible flow at [g1] remains feasible at
    every [g2 >= g1], because retuning only {e raises} residual capacities.
    So for a nondecreasing probe, Dinic resumes on the retained residual
    network and computes just the flow {e increment}; for a descending
    probe, the solver restores the checkpointed solution of the smallest
    [g] solved so far (a capacity blit, no flow recomputation) when that is
    below the target, and only falls back to a zero-flow restart when even
    the checkpoint is too high.  Since the maximal-source-side minimum cut
    is invariant across maximum flows, every path returns a cut
    bit-identical to a from-scratch solve.

    Counters: [parametric.warm_probes] / [parametric.cold_restarts] (the
    first solve and below-checkpoint restarts) classify probes;
    [parametric.snapshot_restores] counts the warm probes served via the
    checkpoint; [parametric.reused_flow_units] and
    [parametric.saved_bfs_phases] total the flow value and BFS phases
    carried over instead of recomputed. *)

type t

val create : nodes:int -> source:int -> sink:int -> t
(** An empty parametric network on nodes [0 .. nodes-1]. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> unit
(** A fixed-capacity arc; must be added before the first {!solve}. *)

val add_gate : t -> src:int -> base:int -> offset:int -> unit
(** A parameterized arc [src -> sink] of capacity
    [base + max 0 (g - offset)] at parameter [g]; must be added before the
    first {!solve}.  [base] must be non-negative. *)

val solve : t -> g:int -> Min_cut.t
(** The minimum cut at parameter [g], with the {e maximal} source side
    (see {!Min_cut.compute_max}).  Warm-starts as described above; the
    result is bit-identical to rebuilding and solving from scratch at [g]. *)
