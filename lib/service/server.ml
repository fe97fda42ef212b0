(* Most pipelined reads evaluated against one epoch pin. *)
let max_batch = 64

type stop = Eof | Shutdown_requested

(* Raised by the write path when the client vanished mid-response; treated
   exactly like EOF so one rude client never takes the daemon down. *)
exception Client_gone

(* A client closing its end mid-write must surface as EPIPE (handled in
   [write_all]) rather than a process-killing SIGPIPE.  Idempotent; no-op
   on platforms without the signal. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ())

(* Buffered line reader over a raw fd, with both a blocking [next] and a
   non-blocking [ready] so the dispatcher can batch already-pipelined
   requests without stalling on a quiet connection. *)
module Line_reader = struct
  type t = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable head : int;  (** start of unconsumed data in [buf] *)
    mutable tail : int;  (** end of unconsumed data in [buf] *)
    mutable scan : int;  (** [buf.\[head..scan)] known to contain no newline *)
    mutable eof : bool;
  }

  let create fd = { fd; buf = Bytes.create 4096; head = 0; tail = 0; scan = 0; eof = false }

  (* Lines are consumed by advancing [head] — no per-line copy of the rest
     of the buffer — so draining a large pipelined burst is linear in the
     buffered bytes, not quadratic. *)
  let take_line t =
    let rec find i = if i >= t.tail then -1 else if Bytes.get t.buf i = '\n' then i else find (i + 1) in
    let nl = find t.scan in
    if nl < 0 then begin
      t.scan <- t.tail;
      None
    end
    else begin
      let line = Bytes.sub_string t.buf t.head (nl - t.head) in
      t.head <- nl + 1;
      t.scan <- t.head;
      if t.head = t.tail then begin
        t.head <- 0;
        t.tail <- 0;
        t.scan <- 0
      end;
      Some line
    end

  let refill t =
    if t.tail = Bytes.length t.buf then
      if t.head > 0 then begin
        (* compact: slide the unconsumed suffix to the front *)
        Bytes.blit t.buf t.head t.buf 0 (t.tail - t.head);
        t.tail <- t.tail - t.head;
        t.scan <- t.scan - t.head;
        t.head <- 0
      end
      else begin
        (* a single line longer than the buffer: grow *)
        let bigger = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf 0 bigger 0 t.tail;
        t.buf <- bigger
      end;
    match Unix.read t.fd t.buf t.tail (Bytes.length t.buf - t.tail) with
    | 0 -> t.eof <- true
    | n -> t.tail <- t.tail + n
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> t.eof <- true

  (* [idle] runs whenever [next] is about to block in [refill] — the hook
     the metrics endpoint uses to serve scrapes while the connection is
     quiet (it returns once the fd is readable, so the read won't stall). *)
  let rec next ?(idle = fun () -> ()) t =
    match take_line t with
    | Some l -> Some l
    | None ->
      if t.eof then
        if t.tail > t.head then begin
          let l = Bytes.sub_string t.buf t.head (t.tail - t.head) in
          t.head <- 0;
          t.tail <- 0;
          t.scan <- 0;
          Some l
        end
        else None
      else begin
        idle ();
        refill t;
        next ~idle t
      end

  (* [`Line l] if a full line is available without blocking, [`Eof] at end
     of stream, [`Would_block] otherwise (any partial data stays buffered
     for the next blocking [next]). *)
  let rec ready t =
    match take_line t with
    | Some l -> `Line l
    | None ->
      if t.eof then `Eof
      else (
        match Unix.select [ t.fd ] [] [] 0.0 with
        | [], _, _ -> `Would_block
        | _ ->
          refill t;
          if t.eof then `Eof else ready t)
end

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Client_gone
  in
  go 0

(* Exception barrier around request evaluation: Request.parse rejects
   out-of-range parameters up front, but anything the evaluators still
   raise must become an error response, never a daemon crash.  The flag
   distinguishes a served error from a served answer for telemetry. *)
let guarded op f =
  try (f (), true) with
  | Invalid_argument msg | Failure msg -> (Request.error_response (op ^ ": " ^ msg), false)
  | Stack_overflow | Out_of_memory -> (Request.error_response (op ^ ": request too large"), false)
  | e -> (Request.error_response (op ^ ": " ^ Printexc.to_string e), false)

let serve_fd ?metrics store ~input ~output =
  Lazy.force ignore_sigpipe;
  let lr = Line_reader.create input in
  let idle () =
    match metrics with
    | None -> ()
    | Some mfd -> Metrics_endpoint.wait_input ~input ~metrics:mfd
  in
  let respond line = write_all output (line ^ "\n") in
  (* Timestamps are taken only while telemetry wants them ([arrival] is 0
     otherwise): with collection off and no event sink, the added
     per-request path performs no clock reads and allocates nothing. *)
  let arrival tele = if tele then Telemetry.now_ns () else 0 in
  let timed_read epoch req () =
    let op = Request.op_name req in
    let t0 = Telemetry.now_ns () in
    let resp, ok = guarded op (fun () -> Request.handle_read ~epoch req) in
    (resp, op, max 0 (Telemetry.now_ns () - t0), ok)
  in
  (* Evaluate a batch of read requests against one pinned epoch.  The
     requests are independent and the epoch is frozen, so fanning out on
     the Par pool keeps answers bit-identical at any domain count.  Each
     batch entry is [(request, trace id, arrival stamp)]. *)
  let flush_reads batch =
    match batch with
    | [] -> ()
    | _ ->
      let epoch = Store.current store in
      let n = List.length batch in
      Telemetry.batch_started n;
      let tele = Telemetry.active () in
      let t_flush = arrival tele in
      let results =
        match batch with
        | [ (req, _, _) ] -> [ timed_read epoch req () ]
        | _ -> Par.map_list (fun (req, _, _) -> timed_read epoch req ()) batch
      in
      let gen = Epoch.generation epoch in
      let age = Epoch.generation (Store.current store) - gen in
      let rec emit pos results batch =
        match (results, batch) with
        | [], [] -> ()
        | (resp, op, exec_ns, ok) :: results, (_, id, t_arr) :: batch ->
          if tele then
            Telemetry.record ~op ~id ~gen ~epoch_age:age
              ~queue_ns:(max 0 (t_flush - t_arr))
              ~exec_ns ~batch_size:n ~batch_pos:pos ~ok;
          respond (Request.with_id id resp);
          emit (pos + 1) results batch
        | _ -> assert false
      in
      emit 0 results batch;
      Telemetry.batch_finished ()
  in
  let mutate ~id ~t_arr ops =
    let tele = Telemetry.active () in
    let t0 = arrival tele in
    let resp, ok = guarded "mutate" (fun () -> Request.handle_mutate ~store ops) in
    if tele then begin
      let exec_ns = max 0 (Telemetry.now_ns () - t0) in
      (* A mutate runs against the store head it publishes onto: age 0. *)
      Telemetry.record ~op:"mutate" ~id ~gen:(Epoch.generation (Store.current store))
        ~epoch_age:0
        ~queue_ns:(max 0 (t0 - t_arr))
        ~exec_ns ~batch_size:1 ~batch_pos:0 ~ok
    end;
    respond (Request.with_id id resp)
  in
  let record_unit ~op ~id ~t_arr ~ok =
    if Telemetry.active () then
      Telemetry.record ~op ~id ~gen:(Epoch.generation (Store.current store)) ~epoch_age:0
        ~queue_ns:(max 0 (Telemetry.now_ns () - t_arr))
        ~exec_ns:0 ~batch_size:1 ~batch_pos:0 ~ok
  in
  let rec loop () =
    match Line_reader.next ~idle lr with
    | None -> Eof
    | Some line ->
      let t_arr = arrival (Telemetry.active ()) in
      let parsed, id = Request.parse_traced line in
      dispatch (parsed, id, t_arr)
  and dispatch (parsed, id, t_arr) =
    match parsed with
    | Error e ->
      record_unit ~op:"error" ~id ~t_arr ~ok:false;
      respond (Request.with_id id (Request.error_response e));
      loop ()
    | Ok Request.Shutdown ->
      record_unit ~op:"shutdown" ~id ~t_arr ~ok:true;
      respond (Request.with_id id Request.shutdown_response);
      Shutdown_requested
    | Ok (Request.Mutate ops) ->
      mutate ~id ~t_arr ops;
      loop ()
    | Ok first ->
      (* Read request: gather whatever other reads are already pipelined,
         stopping at the first barrier (mutate/shutdown/parse error). *)
      let tele = Telemetry.active () in
      let batch = ref [ (first, id, t_arr) ] in
      let count = ref 1 in
      let barrier = ref None in
      let rec gather () =
        if !count < max_batch && !barrier = None then
          match Line_reader.ready lr with
          | `Would_block | `Eof -> ()
          | `Line l -> (
            let t2 = arrival tele in
            match Request.parse_traced l with
            | Ok r, id2 when Request.is_read r ->
              batch := (r, id2, t2) :: !batch;
              incr count;
              gather ()
            | other, id2 -> barrier := Some (other, id2, t2))
      in
      gather ();
      flush_reads (List.rev !batch);
      (match !barrier with None -> loop () | Some pending -> dispatch pending)
  in
  try loop () with Client_gone -> Eof

let serve_stdin ?metrics store = serve_fd ?metrics store ~input:Unix.stdin ~output:Unix.stdout

let accept_loop ?metrics store listen_fd =
  Lazy.force ignore_sigpipe;
  let rec go () =
    (* Between connections the daemon still answers scrapes. *)
    (match metrics with
    | None -> ()
    | Some mfd -> Metrics_endpoint.wait_input ~input:listen_fd ~metrics:mfd);
    match Unix.accept listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | conn, _ ->
      let stop =
        Fun.protect
          ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
          (fun () ->
            (* One broken connection must not stop the daemon accepting. *)
            try serve_fd ?metrics store ~input:conn ~output:conn
            with e ->
              Printf.eprintf "[serve] connection error: %s\n%!" (Printexc.to_string e);
              Eof)
      in
      (match stop with Eof -> go () | Shutdown_requested -> ())
  in
  go ()

let listen_unix ?metrics ~path store =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 8;
      accept_loop ?metrics store fd)

let listen_tcp ?metrics ~host ~port store =
  let addr =
    match host with
    | "" -> Unix.inet_addr_loopback
    | h -> (
      try Unix.inet_addr_of_string h
      with Failure _ -> (
        match Unix.getaddrinfo h "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> invalid_arg ("Server.listen_tcp: cannot resolve host " ^ h)))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 8;
      accept_loop ?metrics store fd)
