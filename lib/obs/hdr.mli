(** Fixed-footprint log-linear histogram of non-negative int values
    (HdrHistogram bucket layout): values below 128 get unit-width slots,
    and each power-of-two range [\[64 * 2^b, 128 * 2^b)] above is cut into
    64 slots of width [2^b], so a slot is at most 1/64 of the values it
    holds (1/64 at the bottom of the range, 1/128 at the top).  One flat int array allocated at {!create}, never resized;
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
    slot width above it: under 1/64 (≈ 1.6 %) of its value.  0 when
    empty. *)

val merge : into:t -> t -> unit
(** Add [t]'s counts, sum and min/max into [into]; [t] is unchanged. *)

val buckets : t -> (int * int) list
(** Non-empty slots as (inclusive upper bound, cumulative count) pairs in
    ascending bound order — the cumulative [_bucket] series of the
    OpenMetrics exposition, minus the implicit [+Inf] bucket whose value is
    {!count}. *)
