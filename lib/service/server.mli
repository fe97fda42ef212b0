(** Line-delimited JSON request server over a pipe or socket.

    The dispatch loop reads one request line at a time; when the first
    request of a round is a read, every further read already pipelined on
    the connection (up to 64) is gathered and the whole batch is
    evaluated against {e one} pinned epoch on the {!Par} pool — responses
    still come back in request order.  A [mutate] or [shutdown] acts as a
    barrier: pending reads flush first, then the mutation publishes a new
    epoch, so a client always observes its own writes.

    Per-request telemetry funnels through {!Telemetry}: the
    [request_duration_ns{op=...}] histogram family, the
    [service.queue_wait_ns] / [service.exec_ns] dispatch-split histograms,
    the [service.requests] / [service.read_batches] counters, the
    [service.{in_flight,batch_size,epoch_age_gen}] gauges and the
    {!Obs.Events} wide-event log (queue-wait = arrival of the request
    line to the batch flush; exec = its evaluator's run).  Client trace
    ids are echoed on every response (see {!Request.parse_traced}).  With
    collection off and no event sink the whole added path is gated behind
    {!Telemetry.active} — no clock reads, zero allocation.

    When [?metrics] carries a listening socket (see {!Metrics_endpoint}),
    the dispatch loop serves [GET /metrics] scrapes from it whenever it
    would otherwise block waiting for input — live exposition without a
    thread, always on the owner domain.

    The server is hardened against untrusted clients: request evaluation
    runs behind an exception barrier that turns any raise into an inline
    [{"error":...}] response, SIGPIPE is ignored so a client closing its
    connection mid-response surfaces as EPIPE, and EPIPE/ECONNRESET on
    either direction end that connection ([Eof]) without killing the
    daemon — {!listen_unix}/{!listen_tcp} keep accepting. *)

type stop = Eof | Shutdown_requested

val serve_fd :
  ?metrics:Unix.file_descr ->
  Store.t ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  stop
(** Serve one connection until EOF or a [shutdown] request.  [?metrics]
    is a listening socket whose connections are answered with the live
    OpenMetrics exposition whenever the loop waits for input. *)

val serve_stdin : ?metrics:Unix.file_descr -> Store.t -> stop
(** [serve_fd] over stdin/stdout — the pipe mode the smoke test drives. *)

val listen_unix : ?metrics:Unix.file_descr -> path:string -> Store.t -> unit
(** Bind a Unix-domain socket at [path] (replacing any stale file), accept
    connections one at a time, and return once a client sends [shutdown].
    The socket file is removed on the way out.  Scrapes on [?metrics] are
    served both between and during connections. *)

val listen_tcp : ?metrics:Unix.file_descr -> host:string -> port:int -> Store.t -> unit
(** Same over TCP; [host = ""] binds the loopback address. *)
