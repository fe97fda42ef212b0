(** Deterministic synthetic graph generators.

    These are the substrate standing in for the paper's SNAP datasets: every
    generator is seeded and reproducible.  The truss-maximization experiments
    need graphs whose k-classes decompose into many triangle-connected
    components with non-trivial onion-layer hierarchies; the power-law
    clustered generator (Holme-Kim style triad closure) and the planted
    near-clique communities provide exactly that. *)

val complete : int -> Graph.t
(** [complete n] is the clique on nodes [0 .. n-1] — an [n]-truss. *)

val erdos_renyi : rng:Rng.t -> n:int -> m:int -> Graph.t
(** [m] distinct uniform edges on [n] nodes (G(n, m) model). *)

val barabasi_albert : rng:Rng.t -> n:int -> m:int -> Graph.t
(** Preferential attachment: each new node attaches to [m] existing nodes
    chosen proportionally to degree.  Power-law degrees, few triangles. *)

val powerlaw_cluster : rng:Rng.t -> n:int -> m:int -> p:float -> Graph.t
(** Holme-Kim model: preferential attachment where each of the [m] links is
    followed, with probability [p], by a triad-closure step connecting to a
    neighbor of the previous target.  High clustering, power-law degrees —
    the topology family of the paper's social networks. *)

val watts_strogatz : rng:Rng.t -> n:int -> k:int -> beta:float -> Graph.t
(** Ring lattice with [k] nearest neighbors per side, each edge rewired with
    probability [beta]. *)

val planted_noisy_clique :
  rng:Rng.t -> g:Graph.t -> members:int array -> drop:float -> unit
(** Add a clique on [members] to [g], then delete each of its edges with
    probability [drop].  Dropping edges spreads the trussness of the
    community below [|members|], creating the (k-1)-class material the
    maximization algorithms feed on. *)

val with_communities :
  rng:Rng.t ->
  base:Graph.t ->
  communities:int ->
  size_min:int ->
  size_max:int ->
  drop:float ->
  Graph.t
(** Plant [communities] noisy cliques on random node subsets of [base]
    (mutating and returning [base]).  Each community's members are drawn
    from the existing node range so communities overlap organically. *)

val hierarchical_web : rng:Rng.t -> pages:int -> cluster:int -> inter:int -> Graph.t
(** Web-graph-like topology: [pages / cluster] dense clusters (noisy cliques)
    chained by [inter] random inter-cluster edges each — mimics the Stanford
    web graph's many medium-density cores. *)

val star_heavy : rng:Rng.t -> n:int -> hubs:int -> m:int -> Graph.t
(** Wiki-Talk-like topology: a few huge hubs plus a sparse power-law
    periphery; very low trussness almost everywhere. *)
