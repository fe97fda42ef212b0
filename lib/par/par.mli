(** Fixed domain pool with deterministic fork/join primitives (stdlib
    [Domain]/[Mutex]/[Condition] only — no Domainslib).

    Sizing: [domains () = 1] (the default, or [MAXTRUSS_DOMAINS]/
    {!set_domains}) runs every primitive on the calling domain with no pool
    and no overhead beyond a branch — exactly the sequential code path.
    For [N > 1], [N - 1] worker domains are spawned lazily on the first
    parallel region and parked between regions; the caller participates as
    slot 0.  [N = 0] (either channel) auto-sizes from
    [Domain.recommended_domain_count ()], clamped to [1, 64].

    Determinism: results are stored at their task index and Obs span
    buffers merge in task-index order after the join, so a primitive
    returns bit-identical results at any domain count, provided task
    bodies touch no shared mutable state (or write only to disjoint
    slices) — which is the caller's obligation.

    Reentrancy: a region entered from a worker domain, or while another
    region runs on the main domain, degrades to sequential execution
    instead of deadlocking.

    Exceptions: if tasks raise, the lowest-indexed task's exception is
    re-raised (with its backtrace) after all tasks finish.

    Metrics: [par.tasks] counts tasks run inside genuinely forked regions
    (sequential fallbacks don't bump it), and the [par.pool_size] gauge
    holds the current total parallelism. *)

val domains : unit -> int
(** Current target parallelism (>= 1).  Resolved from [MAXTRUSS_DOMAINS]
    on first call unless {!set_domains} ran first. *)

val set_domains : int -> unit
(** Request a parallelism level: [0] auto-sizes from the hardware
    (clamped to [1, 64]), negatives clamp to 1.  Joins and respawns the
    pool if the size changes; idempotent otherwise.  Main domain only. *)

val available : unit -> bool
(** True when a region entered right now would actually fork: pool sized
    above 1, calling domain is the owner, and no region is already
    running.  Lets callers skip building per-task scratch that a
    sequential fallback would not need. *)

val tasks : (unit -> 'a) array -> 'a array
(** Run the thunks as one parallel region; [tasks fs |> Array.get i] is
    [fs.(i) ()] up to evaluation interleaving.  Task [t] runs on slot
    [t mod domains ()], each slot in ascending index order. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** One task per element — intended for coarse-grained work items (e.g.
    per-component phases). *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over a list, preserving order. *)

val shutdown : unit -> unit
(** Join all worker domains and drop the pool; the next region respawns
    it.  Registered [at_exit] so idle workers never outlive the process. *)
