(** Fixed-footprint log-linear histogram of non-negative int values
    (HdrHistogram bucket layout): 128 linear sub-buckets per power-of-two
    range, giving ~2 significant decimal digits of resolution (every
    recorded value lands in a slot whose width is < 1/128 of its
    magnitude).  One flat int array allocated at {!create}, never resized;
    {!observe} is O(1) with no allocation.

    This is the raw, single-writer data structure.  The registered,
    domain-safe metric built on it is {!Obs.Histogram}; the per-span-path
    duration histograms the exporters derive from the span tree are also
    [Hdr.t]s. *)

type t

val max_value : int
(** Highest trackable value ([2^61 - 1]); {!observe} clamps above it. *)

val create : unit -> t

val observe : t -> int -> unit
(** Record one value.  Negative values clamp to 0, values above
    {!max_value} to {!max_value}. *)

val count : t -> int
(** Number of recorded values. *)

val sum : t -> int
(** Exact sum of recorded values (as clamped). *)

val min_value : t -> int
(** Smallest recorded value; 0 when empty. *)

val max_value_seen : t -> int
(** Largest recorded value; 0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0..1] (clamped): the highest-equivalent
    value of the slot where the cumulative count reaches
    [ceil (q * count)] — never below the true quantile, and less than one
    slot width (< 1 %) above it.  0 when empty. *)

val merge : into:t -> t -> unit
(** Add [t]'s counts, sum and min/max into [into]; [t] is unchanged. *)

val buckets : t -> (int * int) list
(** Non-empty slots as (inclusive upper bound, cumulative count) pairs in
    ascending bound order — the cumulative [_bucket] series of the
    OpenMetrics exposition, minus the implicit [+Inf] bucket whose value is
    {!count}. *)
