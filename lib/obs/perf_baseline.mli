(** Statistical benchmark baselines and the performance-regression gate.

    A baseline file (schema ["maxtruss-perf-baseline"], version {!schema_version})
    stores, per kernel, the median and the median absolute deviation (MAD)
    of the per-run wall time over a multi-sample Bechamel run, the sample
    count, and the median allocation per run — enough to make a later run
    comparable without assuming anything about the noise distribution.
    [bench/main.exe --record FILE] writes one; [--check FILE] compares a
    fresh run against it and fails on regressions (see {!compare}). *)

type entry = {
  name : string;  (** kernel id, e.g. ["kernels/csr_support\@gowalla"] *)
  median_ns : float;  (** median wall time per run, nanoseconds *)
  mad_ns : float;  (** median absolute deviation of the per-run times *)
  samples : int;  (** how many Bechamel samples the statistics summarize *)
  alloc_w : float;
      (** median words allocated per run (minor + major - promoted) *)
}

type t = { entries : entry list }

val schema_name : string

val schema_version : int

(** {2 Robust statistics} *)

val median : float array -> float
(** [0.] on the empty array; does not mutate its argument. *)

val mad : float array -> float
(** Median absolute deviation from the median; [0.] on the empty array. *)

val of_samples : name:string -> ns:float array -> alloc_w:float array -> entry
(** Summarize per-sample measurements into a baseline entry. *)

(** {2 File format} *)

val to_json : t -> string

val of_json : string -> (t, string) result
(** Rejects a wrong [schema] and any [version] other than
    {!schema_version} (mismatch is an [Error], never a silent best-effort
    parse).

    A malformed entry is a one-line [Error] naming the offending kernel
    and field — e.g. [kernel "decompose": field "mad_ns" is not a number]
    — rather than a silent default; numeric fields that are absent
    entirely default to zero (one sample for [samples]). *)

val write : string -> t -> unit
(** May raise [Sys_error]; drivers catch it and exit 1. *)

val read : string -> (t, string) result
(** File read + {!of_json}; I/O failures are returned as [Error]. *)

(** {2 Comparison} *)

type verdict =
  | Regression  (** fresh median above baseline by more than the threshold *)
  | Improvement  (** fresh median below baseline by more than the threshold *)
  | Unchanged
  | Added  (** kernel only in the fresh run *)
  | Removed  (** kernel only in the baseline *)

type delta = {
  d_name : string;
  d_verdict : verdict;
  d_base_ns : float;  (** [0.] for [Added] *)
  d_fresh_ns : float;  (** [0.] for [Removed] *)
  d_threshold_ns : float;  (** [0.] for [Added]/[Removed] *)
  d_base_alloc_w : float;
  d_fresh_alloc_w : float;
  d_alloc_regression : bool;
      (** allocation gate tripped (independent of the time verdict) *)
}

val alloc_floor_w : float
(** Absolute floor of the allocation gate (words): a fresh median must
    exceed baseline + max(alloc_tol * baseline, this floor) to regress. *)

val alloc_tol : float
(** Relative tolerance of the allocation gate (0.5). *)

val compare :
  ?rel_tol:float ->
  ?mad_k:float ->
  baseline:t ->
  fresh:t ->
  unit ->
  delta list
(** One delta per kernel in either input (baseline order first, then fresh
    additions).  A kernel's time regresses iff

    {[ fresh_median > base_median + max (rel_tol * base_median) (mad_k * base_mad) ]}

    and improves symmetrically; the MAD term stops noisy kernels from
    flaking, the relative term stops zero-MAD kernels from tripping on
    scheduler jitter.  Its allocation regresses iff

    {[ fresh_alloc > base_alloc + max (alloc_tol * base_alloc) alloc_floor_w ]}

    Defaults: [rel_tol = 0.25], [mad_k = 5.0]. *)

val regressions : delta list -> delta list
(** Deltas failing either gate: time [Regression] or [d_alloc_regression]. *)

val print_table : out_channel -> delta list -> unit
(** Aligned comparison table (baseline / fresh / Δ / threshold / alloc Δ /
    verdict), one row per delta. *)
