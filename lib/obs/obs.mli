(** Zero-dependency observability for the PCFR pipeline: hierarchical
    wall-clock spans with per-span GC/allocation attribution, named
    counters/gauges/histograms in a global registry, and five exporters
    (indented span tree, schema-versioned metrics JSON, Chrome trace-event
    JSON loadable in Perfetto / [chrome://tracing], OpenMetrics text for
    Prometheus-style scrapers, and a crash-surviving flight-recorder dump).

    Memory attribution: every span records per-domain GC counter deltas
    over its lifetime (minor/major/promoted words, minor+major
    collections), rolled up inclusively and exclusively exactly like wall
    time.  Word counts are read without allocating (a direct major-heap
    allocation is charged to the span that made it); collection counts
    come from [Gc.quick_stat].  A GC alarm maintains a peak-major-heap
    gauge ([gc.peak_major_heap_words]) while collection is on, refreshed by a
    sampled probe on every 32nd span close so spikes between major cycles
    are caught too (sample count mirrored in [obs.peak_heap_samples]).

    Latency distributions: the exporters build a log-linear histogram
    ({!Hdr.t}, ~2 significant decimal digits) per span path from the tree's
    closed occurrences of that path, so they report p50/p90/p99 per path —
    not just totals.  The span tree is the one record every span export
    reads.  Free-standing distributions use {!Histogram}.

    Overhead contract: everything is off by default.  While disabled,
    [Span.enter]/[Span.exit] with a static name, [Counter.add]/[incr],
    [Gauge.set] and [Histogram.observe] cost a single atomic-bool load and
    allocate nothing, so instrumentation may stay in kernel hot paths; the
    registry does not grow (counters, gauges and histograms only register
    themselves on first use while enabled), and no GC alarm is installed.
    The only call-site allocations are optional [?args] lists, which
    instrumented code confines to coarse (per-level) granularity.

    Domain safety: counters, gauges, the enabled flag and the generation
    stamp are atomic, so any domain may bump them concurrently; a histogram
    keeps one single-writer shard per domain, merged on read.  The span
    tree has a single owner — the domain that loaded this module — and
    other domains only record spans inside a {!Domain_scope}: a per-task
    buffer the owner splices under its innermost open span at
    {!Domain_scope.merge} in an order of its choosing, keeping exports
    deterministic at any domain count.  Spans entered on a non-owner domain
    outside any scope are dropped; a span exited on a different domain than
    entered it is dropped with an [obs.cross_domain_exits] counter bump;
    [reset], [set_enabled] and the exporters must only run on the owner
    domain, with no scope in flight. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Turning collection on also (re)starts the trace epoch if the registry
    is empty, installs the peak-heap GC alarm and seeds its gauge.
    Disabling mid-run keeps collected data for export and removes the
    alarm.  Owner-domain only. *)

val reset : unit -> unit
(** Drop all spans and unregister all counters/gauges/histograms (their
    totals restart from zero on next use).  Does not change the enabled
    flag, and deliberately does not clear the {!Flight_recorder} ring (a
    process-lifetime tail).  Owner-domain only; must not race in-flight
    {!Domain_scope}s. *)

module Span : sig
  type t

  val none : t
  (** The no-op span; what [enter] returns while disabled. *)

  val enter : ?args:(string * string) list -> string -> t
  (** Open a span under the current domain's innermost open span.  [?args]
      are free-form key/value annotations kept in exports; omit them on hot
      paths (the list is allocated by the caller even when disabled).  On a
      non-owner domain outside any {!Domain_scope} this returns {!none}. *)

  val exit : t -> unit
  (** Close the span (and, defensively, any forgotten children still open
      inside it).  No-op on [none] or a span from before the last [reset].
      Called on a different domain than the one that entered the span, the
      exit is dropped and [obs.cross_domain_exits] incremented — the span
      stays open until its scope drains it. *)

  val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_ name f] = [enter]/[exit] around [f ()], exception-safe. *)
end

module Counter : sig
  type t

  val make : string -> t
  (** Pure allocation: safe at module-initialization time; the counter
      joins the registry on first [add]/[incr] while enabled. *)

  val incr : t -> unit

  val add : t -> int -> unit
  (** Atomic; safe from any domain.  The increment is also attributed to
      the calling domain's innermost open span, when there is one. *)

  val value : t -> int
  (** Total since the last [reset] (0 if untouched since). *)
end

module Gauge : sig
  type t

  val make : string -> t

  val set : t -> float -> unit
  (** Last-write-wins (atomic); exports report the most recent value. *)

  val set_int : t -> int -> unit
  val value : t -> float
end

module Histogram : sig
  (** Registered, domain-safe distributions over non-negative ints (choose
      the unit; span durations use nanoseconds).  Built on {!Hdr.t}: fixed
      footprint, log-linear buckets, ~2 significant decimal digits.  Each
      domain writes its own shard (created on that domain's first observe),
      so [observe] never contends; reads merge the shards and are exact
      once concurrent writers have joined. *)

  type t

  val make : string -> t
  (** Pure allocation (no bucket array yet): safe at module-initialization
      time; the histogram joins the registry — and allocates its first
      shard — on first [observe] while enabled. *)

  val observe : t -> int -> unit

  val count : t -> int

  val sum : t -> int

  val quantile : t -> float -> int
  (** Conservative (< 1/64, ≈ 1.6 %, high) quantile over the merged
      shards; see {!Hdr.quantile}. *)

  val snapshot : t -> Hdr.t
  (** Fresh merged copy of all shards (empty if stale or disabled). *)

  val merge : t -> into:Hdr.t -> unit
  (** Merge all shards into an existing accumulator. *)
end

module Domain_scope : sig
  (** Span buffering for worker domains, used by the [Par] pool: the owner
      creates one scope per task before forking, each task runs inside
      {!run} on whichever domain picks it up, and after the join the owner
      calls {!merge} in task-index order — so the exported span tree is
      identical no matter how many domains actually ran the tasks. *)

  type t

  val none : t
  (** The no-op scope; what {!create} returns while disabled. *)

  val create : unit -> t
  (** Allocate a buffer for one task's spans.  Owner domain, pre-fork.
      Returns {!none} while disabled (and then {!run} and {!merge} are
      no-ops costing one branch). *)

  val run : t -> (unit -> 'a) -> 'a
  (** Run a task with the current domain's span stack rooted at the scope's
      buffer; exception-safe, closes any span the task left open, restores
      the previous stack.  Any domain, including the owner. *)

  val merge : t -> unit
  (** Splice the scope's recorded spans under the owner's innermost open
      span.  Owner domain, post-join; call once per scope, in task order.
      Scopes from before the last [reset] are dropped. *)
end

module Flight_recorder : sig
  (** Bounded ring of the last N completed spans, recorded at span close
      from any domain and dumped as Chrome-trace JSON — on demand, at
      normal process exit, or from a fatal-signal handler — so a hung or
      killed run leaves a readable tail of what it was doing.  Inactive
      (capacity 0, recording a no-op beyond one array-length load) until
      {!configure} is called; the CLI wires [--flight-record N] /
      [MAXTRUSS_FLIGHT_RECORD] to it.  {!Obs.reset} does not clear the
      ring. *)

  val configure : capacity:int -> unit
  (** Preallocate a ring of [capacity] cells (0 disables) and restart the
      record count.  Not safe concurrently with in-flight span closes. *)

  val capacity : unit -> int

  val active : unit -> bool

  val recorded : unit -> int
  (** Total spans recorded since {!configure} (may exceed capacity; only
      the last [capacity] are retained). *)

  val set_dump_path : string option -> unit
  (** Where the exit/signal hooks write their dump; [None] disables them
      without uninstalling. *)

  val dump_json : unit -> string
  (** The retained spans, oldest first, as a Chrome trace-event object
      ([ph:"X"], µs since the obs epoch, [tid] = recording domain id). *)

  val dump : string -> unit
  (** Write {!dump_json} to a file. *)

  val install_crash_hooks : unit -> unit
  (** Install the [at_exit] hook and SIGTERM/SIGINT/SIGQUIT handlers that
      dump to {!set_dump_path} (signal handlers re-deliver the signal with
      default disposition after dumping, so exit status is preserved), plus
      a SIGUSR1 handler that dumps {e without} terminating — the
      live-inspection hook for a running daemon ([kill -USR1 <pid>]).
      Idempotent; never installed implicitly. *)
end

module Events : sig
  (** Wide-event JSONL log: one structured line per served request,
      written to a file configured at startup ([maxtruss-serve
      --event-log]).  Complements the aggregated registry — histograms
      answer "what is p99", the event log answers "which request was slow,
      against which epoch generation, at which batch position".  Every
      request is written; line writes are serialized and flushed
      individually, so a killed process leaves whole lines.

      Overhead contract: with no sink configured, {!emit_request} costs a
      single ref load and allocates nothing (covered by the disabled-mode
      zero-alloc test). *)

  val configure : string -> unit
  (** Open (truncating) a JSONL sink at the given path and write a
      self-describing [{"event":"start",...}] header line.  Closes any
      previous sink first. *)

  val close : unit -> unit
  (** Flush and close the sink; further emits are no-ops. *)

  val active : unit -> bool

  val written : unit -> int
  (** Request lines written since {!configure} (excluding the header). *)

  val emit_request :
    op:string ->
    id:string option ->
    gen:int ->
    epoch_age:int ->
    queue_ns:int ->
    exec_ns:int ->
    batch_size:int ->
    batch_pos:int ->
    ok:bool ->
    unit
  (** Write one request event.  [id], when present, must be a rendered
      JSON literal (e.g. ["\"abc\""] or ["7"]) and is embedded verbatim.
      Safe from any domain. *)
end

(** {2 Introspection (used by the exporters and the test suite)} *)

type span_stat = {
  path : string;
      (** ["a/b(h=2)"]-style path: span names root-to-leaf, with [?args]
          rendered in parentheses; sibling spans with equal paths are
          aggregated. *)
  count : int;
  total_s : float;  (** inclusive wall-clock seconds, summed over [count] *)
  self_s : float;  (** exclusive: [total_s] minus the children's [total_s] *)
  p50_s : float;
      (** median single-occurrence duration, from the log-linear histogram
          of the path's closed occurrences (quantized up, never below the
          true value); a path with none closed uses all of them, measured
          up to now *)
  p90_s : float;
  p99_s : float;
  alloc_w : float;
      (** inclusive words allocated (minor + major - promoted, the
          [Gc.allocated_bytes] definition), summed over [count] *)
  self_alloc_w : float;  (** exclusive: [alloc_w] minus the children's *)
  promoted_w : float;  (** words promoted minor→major inside the span *)
  minor_gcs : int;  (** minor collections finishing inside the span *)
  major_gcs : int;  (** major collection cycles finishing inside the span *)
  counters : (string * int) list;
      (** counter increments attributed to this span (innermost-open-span
          attribution), summed over the aggregated occurrences *)
}

val span_stats : unit -> span_stat list
(** Aggregated span tree in preorder; open spans are measured up to now. *)

val counters : unit -> (string * int) list
(** Registered counters sorted by name (registration order is
    scheduling-dependent once several domains first-touch concurrently). *)

val gauges : unit -> (string * float) list
(** Registered gauges sorted by name. *)

val histograms : unit -> (string * Hdr.t) list
(** Registered histograms sorted by name, as merged snapshots. *)

val span_histograms : unit -> (string * Hdr.t) list
(** Duration histograms (nanoseconds) of each span path's closed
    occurrences, sorted by path; paths with none closed are absent. *)

val allocated_words : unit -> float
(** Words the calling domain has allocated so far (minor + major -
    promoted), from the reads a span's [alloc_w] comes from: exact at any
    moment, where [Gc.quick_stat]'s major words move only at collections.
    Works whether or not collection is on. *)

(** {2 Exporters} *)

val report : out_channel -> unit
(** Indented human-readable span tree: count, inclusive and exclusive
    times, p50/p90/p99, inclusive and exclusive allocation, minor/major
    GCs, per-span counters, followed by global counters, gauges and
    histograms. *)

val metrics_json : unit -> string
(** Schema-versioned metrics object (see METRICS_SCHEMA.md):
    [{"schema": "maxtruss-obs-metrics", "version": 3, ...}].  Span rows
    carry [p50_s]/[p90_s]/[p99_s]; a top-level ["histograms"] section
    (subsections ["named"] and ["spans"]) appears when non-empty. *)

val write_metrics : string -> unit

val chrome_trace_json : unit -> string
(** [{"traceEvents": [...]}] with one complete ("ph":"X") event per span
    occurrence; timestamps are microseconds since the trace epoch.  Same
    renderer as {!Flight_recorder.dump_json}. *)

val write_chrome_trace : string -> unit

val openmetrics : unit -> string
(** OpenMetrics / Prometheus text exposition: counters as
    [maxtruss_<name>_total], gauges as [maxtruss_<name>], registered
    histograms as [maxtruss_<name>] histogram families and span durations
    as the single family [maxtruss_span_duration_ns] labelled by [path] —
    each with cumulative [_bucket{le=...}] plus [_sum]/[_count] series.
    Metric names are sanitized to [[a-zA-Z0-9_:]]; output is name-sorted
    and ends with [# EOF].

    A registered name of the form [base{key=value,...}] is rendered as a
    labelled series of the family [maxtruss_<base>] — e.g. counters or
    histograms registered per operation as
    ["request_duration_ns{op=mutate}"] all join the single
    [maxtruss_request_duration_ns] family, distinguished by
    [{op="mutate"}].  Entries are regrouped so each family gets exactly
    one [# TYPE] line; names whose brace section does not parse as
    [key=value] pairs are treated as unlabelled. *)

val write_openmetrics : string -> unit

val lint_openmetrics : ?require_bucket:bool -> string -> (int, string) result
(** Shape-check an exposition (every non-comment line is a
    [series value] sample, families have a single [# TYPE] line, the text
    ends with [# EOF], and — unless [require_bucket] is [false] — at least
    one histogram [_bucket] series is present).  Returns the number of
    non-empty lines, or a one-line description of the first problem.
    Backs the [--assert-openmetrics] flags of [bench] and
    [maxtruss-serve]. *)
