(** The service's wire protocol: one JSON object per line in, one JSON
    object per line out.

    Requests: [{"op":"decompose"}], [{"op":"trussness","edges":[[u,v],...]}],
    [{"op":"truss-query","k":K,"limit":N?}], [{"op":"onion","k":K,"limit":N?}],
    [{"op":"maximize","k":K,"budget":B,"algo":"pcfr"?,"seed":S?,"g_probes":P?}],
    [{"op":"mutate","ops":[["insert",u,v],["delete",u,v],...]}],
    [{"op":"stats","detail":true?}], [{"op":"shutdown"}].

    Any request may carry an ["id"] field (string or integer): the trace
    id.  It is echoed verbatim as the first field of the response line
    ([{"id":...,"op":...}]) and stamped into the wide-event log, so a
    client can correlate pipelined responses and an operator can find a
    specific request in the telemetry.  No id is ever generated — an
    untraced request keeps its exact historical response bytes.

    Responses are deterministic functions of the epoch they ran against —
    no wall-clock times, edge lists sorted — so a replayed request script
    yields byte-identical transcripts (the serve-smoke golden test relies
    on this).  The one exception is opt-in: [{"op":"stats","detail":true}]
    appends an ["obs"] section with live counters and latency quantiles
    (see {!Telemetry.stats_obs_json}), which is wall-clock-dependent by
    nature. *)

type algo = Pcfr | Pcf | Pcr

type t =
  | Decompose
  | Trussness of (int * int) list
  | Truss_query of { k : int; limit : int option }
  | Onion of { k : int; limit : int option }
  | Maximize of { k : int; budget : int; algo : algo; seed : int; g_probes : int option }
  | Mutate of Mutation_log.op list
  | Stats of { detail : bool }
  | Shutdown

val op_name : t -> string

val is_read : t -> bool
(** True for every op that only reads an epoch ([Maximize] included — it
    copies the graph before mutating).  [Mutate] and [Shutdown] are
    barriers for the server's read batching. *)

val parse : string -> (t, string) result
(** Parse one request line, validating both JSON shape and value ranges
    ([limit] ≥ 0, query [k] ≥ 0; for [maximize]: [k] ≥ 3, [budget] ≥ 0,
    [g_probes] ≥ 1 — the same ranges the one-shot CLI enforces), so a
    well-formed-but-out-of-range request is rejected here instead of
    raising inside an evaluator. *)

val parse_traced : string -> (t, string) result * string option
(** {!parse}, plus the client-supplied ["id"] field re-rendered as a JSON
    literal (["\"abc\""], ["7"]) — [None] when absent, non-string/integer,
    or the line is not JSON.  A malformed-but-JSON request still yields
    its id, so even error responses stay correlatable. *)

val with_id : string option -> string -> string
(** [with_id id resp] splices [{"id":ID,] in front of the response
    object's first field; identity when [id] is [None]. *)

val error_response : string -> string
(** [{"error":"..."}]. *)

val shutdown_response : string

val handle_read : epoch:Epoch.t -> t -> string
(** Evaluate a read request against one pinned epoch and render the
    response line.  Pure with respect to the epoch (the maximize op runs
    on a private graph copy); callable from any domain, so the server
    fans batches out on the {!Par} pool.  Raises [Invalid_argument] on
    [Mutate]/[Shutdown]. *)

val handle_mutate : store:Store.t -> Mutation_log.op list -> string
(** Apply a mutation batch through {!Mutation_log.apply} (publishing a new
    epoch) and render the response line. *)
