(* maxtruss-serve — long-lived truss-maximization daemon.

   Loads a graph, freezes it into an epoch, and answers line-delimited
   JSON requests (see Service.Request) over stdin, a Unix-domain socket or
   TCP.  Mutation batches are maintained incrementally through the truss
   maintenance theorems and published RCU-style — in-flight readers keep
   their epoch, new requests see the new one.

     maxtruss-serve -d gowalla-sample --stdin < requests.jsonl
     maxtruss-serve -i graph.edges --socket /tmp/maxtruss.sock
     maxtruss-serve -d gowalla --tcp 7171 --domains 4 *)

open Cmdliner
open Cli_common

let stdin_flag =
  let doc = "Serve requests from stdin, one JSON object per line, until EOF (the default mode)." in
  Arg.(value & flag & info [ "stdin" ] ~doc)

let socket_arg =
  let doc = "Listen on a Unix-domain socket at $(docv) (removed on exit)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Listen on TCP port $(docv)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Bind address for --tcp (default: loopback)." in
  Arg.(value & opt string "" & info [ "host" ] ~docv:"HOST" ~doc)

let assert_openmetrics_flag =
  let doc =
    "After serving, validate the OpenMetrics exposition's shape (implies collection on); \
     exit non-zero if malformed."
  in
  Arg.(value & flag & info [ "assert-openmetrics" ] ~doc)

let event_log_arg =
  let doc =
    "Write one structured JSONL event per served request (op, trace id, epoch generation, \
     queue-wait/exec split, batch position) to $(docv); see METRICS_SCHEMA.md."
  in
  Arg.(value & opt (some string) None & info [ "event-log" ] ~docv:"FILE" ~doc)

let metrics_socket_arg =
  let doc =
    "Serve the live OpenMetrics exposition over minimal HTTP on a second Unix-domain \
     socket at $(docv) (GET /metrics; try curl --unix-socket $(docv) \
     http://localhost/metrics).  Implies collection on; the socket file is removed on \
     exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics-socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run input dataset domains stdin_mode socket tcp host stats metrics trace openmetrics assert_om
      flight_record flight_dump event_log metrics_socket =
    match load_graph input dataset with
    | Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok g ->
      apply_domains domains;
      enable_obs_if_requested ~stats ~metrics ~trace ~openmetrics;
      if assert_om then Obs.set_enabled true;
      setup_flight_recorder ~capacity:flight_record ~dump:flight_dump;
      let epoch = Service.Epoch.create g in
      let store = Service.Store.create epoch in
      (* Protocol traffic owns stdout; everything human goes to stderr. *)
      Printf.eprintf "[serve] epoch 0: %d nodes, %d edges, kmax %d\n%!"
        (Service.Epoch.num_nodes epoch) (Service.Epoch.num_edges epoch)
        (Service.Epoch.kmax epoch);
      (match event_log with
      | None -> ()
      | Some path ->
        Obs.Events.configure path;
        Printf.eprintf "[serve] event log: %s\n%!" path);
      let metrics_fd =
        match metrics_socket with
        | None -> None
        | Some path ->
          (* The exposition is empty without collection on. *)
          Obs.set_enabled true;
          let fd = Service.Metrics_endpoint.bind_unix ~path in
          Printf.eprintf "[serve] metrics scrape on unix socket %s\n%!" path;
          Some fd
      in
      Fun.protect
        ~finally:(fun () ->
          Obs.Events.close ();
          match (metrics_fd, metrics_socket) with
          | Some fd, Some path -> Service.Metrics_endpoint.close_unix ~path fd
          | _ -> ())
      @@ fun () ->
      (match (socket, tcp) with
      | Some path, None ->
        Printf.eprintf "[serve] listening on unix socket %s\n%!" path;
        Service.Server.listen_unix ?metrics:metrics_fd ~path store
      | None, Some port ->
        Printf.eprintf "[serve] listening on tcp port %d\n%!" port;
        Service.Server.listen_tcp ?metrics:metrics_fd ~host ~port store
      | Some _, Some _ ->
        Printf.eprintf "pass either --socket or --tcp, not both\n";
        exit 1
      | None, None ->
        ignore stdin_mode;
        ignore (Service.Server.serve_stdin ?metrics:metrics_fd store));
      let final = Service.Store.current store in
      Printf.eprintf "[serve] done at generation %d: %d edges, kmax %d, %d fallbacks\n%!"
        (Service.Epoch.generation final) (Service.Epoch.num_edges final)
        (Service.Epoch.kmax final)
        (Service.Mutation_log.fallback_count ());
      if Obs.Events.active () then
        Printf.eprintf "[serve] event log: %d events written\n%!" (Obs.Events.written ());
      let ok = ref (export_obs ~stats ~metrics ~trace ~openmetrics) in
      if assert_om then begin
        match Obs.lint_openmetrics (Obs.openmetrics ()) with
        | Ok lines -> Printf.eprintf "[serve] openmetrics export ok: %d lines\n%!" lines
        | Error e ->
          Printf.eprintf "[serve] openmetrics assertion failed: %s\n%!" e;
          ok := false
      end;
      if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "maxtruss-serve" ~version:"1.0.0"
       ~doc:
         "Serve truss decomposition, queries, maximization and incremental edge \
          mutations over line-delimited JSON")
    Term.(
      const run $ input $ dataset_opt $ domains_arg $ stdin_flag $ socket_arg $ tcp_arg
      $ host_arg $ stats_flag $ metrics_out $ trace_out
      $ openmetrics_out $ assert_openmetrics_flag $ flight_record_arg $ flight_dump_arg
      $ event_log_arg $ metrics_socket_arg)

let () = exit (Cmd.eval' serve_cmd)
