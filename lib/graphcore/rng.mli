(** Deterministic pseudo-random number generator (splitmix64).

    All randomized algorithms in this repository draw from an explicit [Rng.t]
    so that every experiment is reproducible from a seed, independently of the
    standard library's global generator. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Two generators
    created from the same seed produce the same stream. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] returns [min k (Array.length arr)]
    distinct elements drawn uniformly, in random order.  [arr] is not
    modified. *)
