(* Service layer: epoch immutability under concurrent publication, the
   mutation log against a full-recompute oracle, request parsing, and
   pipe-served end-to-end round trips. *)

open Graphcore

let store_of g = Service.Store.create (Service.Epoch.create g)

(* The canonical read set the isolation/oracle checks compare on: broad
   enough that a stale CSR offset, a wrong patched trussness or a wrong
   onion layer all change some response byte. *)
let probe_requests epoch =
  let kmax = Service.Epoch.kmax epoch in
  let edges =
    Graph.edge_array (Service.Epoch.graph epoch)
    |> Array.to_list
    |> List.map Edge_key.endpoints
  in
  [
    Service.Request.Decompose;
    Service.Request.Stats { detail = false };
    Service.Request.Truss_query { k = 3; limit = None };
    Service.Request.Truss_query { k = max 3 kmax; limit = None };
    Service.Request.Onion { k = max 3 kmax; limit = None };
    Service.Request.Trussness ((0, 1) :: (0, 99) :: edges);
  ]

let probe_with reqs epoch = List.map (fun req -> Service.Request.handle_read ~epoch req) reqs
let probe epoch = probe_with (probe_requests epoch) epoch

(* Compare two epochs over the same graph on one shared request list (the
   trussness probe enumerates edges, whose order is a property of the graph
   instance — the requests must be built once, not per epoch). *)
let answers_match a b =
  let reqs = probe_requests a in
  probe_with reqs a = probe_with reqs b

(* --- epoch isolation ------------------------------------------------------ *)

let test_reader_pins_epoch () =
  let store = store_of (Helpers.two_cliques_shared_edge ()) in
  let pinned = Service.Store.current store in
  let before = probe pinned in
  (* Writer publishes three epochs while the reader holds generation 0. *)
  List.iter
    (fun ops -> ignore (Service.Mutation_log.apply store ops))
    [
      [ Service.Mutation_log.Delete (0, 1) ];
      [ Service.Mutation_log.Insert (2, 7); Service.Mutation_log.Insert (3, 7) ];
      [ Service.Mutation_log.Delete (5, 6); Service.Mutation_log.Insert (0, 1) ];
    ];
  Alcotest.(check int) "store advanced" 3
    (Service.Epoch.generation (Service.Store.current store));
  Alcotest.(check (list string)) "pinned epoch answers unchanged" before (probe pinned);
  Alcotest.(check int) "pinned generation still 0" 0 (Service.Epoch.generation pinned)

let test_concurrent_reader () =
  (* A reader domain hammers a pinned epoch while the main domain publishes
     a stream of batches; every answer must equal the first. *)
  let store = store_of (Gen.complete 7) in
  let pinned = Service.Store.current store in
  let expected = probe pinned in
  let failures = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        for _ = 1 to 40 do
          if probe pinned <> expected then Atomic.incr failures
        done)
  in
  for i = 0 to 19 do
    ignore
      (Service.Mutation_log.apply store
         [ Service.Mutation_log.Insert (100 + i, 101 + i); Service.Mutation_log.Delete (0, 1) ])
  done;
  Domain.join reader;
  Alcotest.(check int) "no divergent read" 0 (Atomic.get failures);
  Alcotest.(check int) "twenty generations published" 20
    (Service.Epoch.generation (Service.Store.current store))

let test_onion_memo_idempotent () =
  let epoch = Service.Epoch.create (Helpers.two_cliques_shared_edge ()) in
  let k = Service.Epoch.kmax epoch in
  let a = Service.Epoch.onion_layers epoch ~k in
  let b = Service.Epoch.onion_layers epoch ~k in
  Alcotest.(check bool) "memoized result stable" true (a = b);
  Alcotest.(check bool) "k < 3 is empty" true
    (Service.Epoch.onion_layers epoch ~k:2 = ([], 0))

(* --- mutation log vs full recompute --------------------------------------- *)

let script_gen =
  QCheck2.Gen.(
    let* edges = Helpers.random_graph_gen () in
    let* script =
      list_size (int_range 1 4)
        (list_size (int_range 1 8)
           (let* insert = bool in
            let* u = int_range 0 13 in
            let* v = int_range 0 13 in
            return
              (if insert then Service.Mutation_log.Insert (u, v)
               else Service.Mutation_log.Delete (u, v))))
    in
    return (edges, script))

(* After every batch the published epoch must answer exactly like an epoch
   rebuilt from scratch on the same graph — and with the default config
   these tiny batches must stay on the incremental path. *)
let prop_apply_matches_rebuild =
  QCheck2.Test.make ~name:"mutation log equals full recompute after every batch" ~count:120
    script_gen
    (fun (edges, script) ->
      QCheck2.assume (edges <> []);
      let store = store_of (Graph.of_edges edges) in
      List.for_all
        (fun ops ->
          let out = Service.Mutation_log.apply store ops in
          let e = out.Service.Mutation_log.epoch in
          let oracle =
            Service.Epoch.create
              ~generation:(Service.Epoch.generation e)
              (Service.Epoch.graph e)
          in
          answers_match e oracle)
        script)

let prop_apply_counts_net_changes =
  QCheck2.Test.make ~name:"outcome counts reflect the graph delta" ~count:120 script_gen
    (fun (edges, script) ->
      QCheck2.assume (edges <> []);
      let store = store_of (Graph.of_edges edges) in
      List.for_all
        (fun ops ->
          let before = Service.Epoch.num_edges (Service.Store.current store) in
          let out = Service.Mutation_log.apply store ops in
          let after = Service.Epoch.num_edges out.Service.Mutation_log.epoch in
          after - before
          = out.Service.Mutation_log.inserted - out.Service.Mutation_log.deleted)
        script)

let test_normalization_cancels () =
  let store = store_of (Helpers.triangle ()) in
  (* insert an existing edge; delete-then-reinsert an edge; a self-loop;
     delete an absent edge *)
  let out =
    Service.Mutation_log.apply store
      [
        Service.Mutation_log.Insert (0, 1);
        Service.Mutation_log.Delete (1, 2);
        Service.Mutation_log.Insert (1, 2);
        Service.Mutation_log.Insert (5, 5);
        Service.Mutation_log.Delete (0, 9);
      ]
  in
  Alcotest.(check int) "nothing inserted" 0 out.Service.Mutation_log.inserted;
  Alcotest.(check int) "nothing deleted" 0 out.Service.Mutation_log.deleted;
  (* the existing-edge insert, the self-loop and the absent delete are
     literal no-ops; the delete/insert pair nets to zero without being
     "ignored" *)
  Alcotest.(check int) "three ops ignored" 3 out.Service.Mutation_log.ignored;
  Alcotest.(check int) "still a fresh generation" 1
    (Service.Epoch.generation out.Service.Mutation_log.epoch);
  Alcotest.(check int) "edge set untouched" 3
    (Service.Epoch.num_edges out.Service.Mutation_log.epoch)

let test_fallback_threshold () =
  (* K6 has 15 edges: a batch changing 3 of them is maintained, one
     changing 4 (more than a quarter) takes the rebuild path. *)
  let deletions n = List.init n (fun i -> Service.Mutation_log.Delete (0, i + 1)) in
  let small = Service.Mutation_log.apply (store_of (Gen.complete 6)) (deletions 3) in
  Alcotest.(check bool) "a quarter or less is maintained" false
    small.Service.Mutation_log.fallback;
  let store = store_of (Gen.complete 6) in
  let fallbacks0 = Service.Mutation_log.fallback_count () in
  let out = Service.Mutation_log.apply store (deletions 4) in
  Alcotest.(check bool) "more than a quarter rebuilds" true out.Service.Mutation_log.fallback;
  Alcotest.(check int) "fallback counted" (fallbacks0 + 1) (Service.Mutation_log.fallback_count ());
  (* and the rebuilt epoch still answers like a fresh one *)
  let e = out.Service.Mutation_log.epoch in
  let oracle =
    Service.Epoch.create ~generation:(Service.Epoch.generation e) (Service.Epoch.graph e)
  in
  Alcotest.(check bool) "rebuild path exact" true (answers_match e oracle)

(* --- request parsing ------------------------------------------------------ *)

let test_parse_ok () =
  let ok s = match Service.Request.parse s with Ok r -> r | Error e -> Alcotest.fail e in
  (match ok {|{"op":"decompose"}|} with
  | Service.Request.Decompose -> ()
  | _ -> Alcotest.fail "decompose");
  (match ok {|{"op":"trussness","edges":[[0,1],[2,3]]}|} with
  | Service.Request.Trussness [ (0, 1); (2, 3) ] -> ()
  | _ -> Alcotest.fail "trussness");
  (match ok {|{"op":"truss-query","k":4,"limit":10}|} with
  | Service.Request.Truss_query { k = 4; limit = Some 10 } -> ()
  | _ -> Alcotest.fail "truss-query");
  (match ok {|{"op":"mutate","ops":[["insert",1,2],["delete",2,3]]}|} with
  | Service.Request.Mutate
      [ Service.Mutation_log.Insert (1, 2); Service.Mutation_log.Delete (2, 3) ] ->
    ()
  | _ -> Alcotest.fail "mutate");
  (match ok {|{"op":"maximize","k":5,"budget":10}|} with
  | Service.Request.Maximize
      { k = 5; budget = 10; algo = Service.Request.Pcfr; seed = 42; g_probes = None } ->
    ()
  | _ -> Alcotest.fail "maximize defaults");
  match ok {|{"op":"shutdown"}|} with
  | Service.Request.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown"

let test_parse_errors () =
  let err s =
    match Service.Request.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  err "not json";
  err {|{"op":"frobnicate"}|};
  err {|{"op":"mutate","ops":[["upsert",1,2]]}|};
  err {|[1,2,3]|};
  (* well-formed JSON with out-of-range values must be rejected at parse
     time, not crash an evaluator *)
  err {|{"op":"maximize","k":2,"budget":5}|};
  err {|{"op":"maximize","k":5,"budget":-1}|};
  err {|{"op":"maximize","k":5,"budget":5,"g_probes":0}|};
  err {|{"op":"truss-query","k":-1}|};
  err {|{"op":"truss-query","k":4,"limit":-3}|};
  err {|{"op":"onion","k":4,"limit":-1}|}

(* --- end-to-end over a pipe ----------------------------------------------- *)

(* Feed the script through serve_fd over a pipe pair and return the stop
   reason plus response lines.  Requests are written up front (the scripts
   here stay far under pipe capacity), so the single-threaded server just
   drains to EOF or shutdown. *)
let serve_script store lines =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let payload = String.concat "\n" lines ^ "\n" in
  let n = Unix.write_substring in_w payload 0 (String.length payload) in
  Alcotest.(check int) "script fits the pipe" (String.length payload) n;
  Unix.close in_w;
  let stop = Service.Server.serve_fd store ~input:in_r ~output:out_w in
  Unix.close out_w;
  Unix.close in_r;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read out_r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close out_r;
  let responses =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")
  in
  (stop, responses)

let script =
  [
    {|{"op":"stats"}|};
    {|{"op":"decompose"}|};
    {|{"op":"trussness","edges":[[0,1],[0,9]]}|};
    {|{"op":"truss-query","k":4,"limit":5}|};
    {|{"op":"mutate","ops":[["delete",0,1],["insert",0,9]]}|};
    {|{"op":"stats"}|};
    {|{"op":"shutdown"}|};
  ]

let test_server_round_trip () =
  let stop, responses = serve_script (store_of (Helpers.two_cliques_shared_edge ())) script in
  Alcotest.(check bool) "stopped on shutdown" true (stop = Service.Server.Shutdown_requested);
  Alcotest.(check int) "one response per request" (List.length script) (List.length responses);
  List.iter
    (fun r -> Alcotest.(check char) "json object per line" '{' r.[0])
    responses;
  Alcotest.(check string) "shutdown ack last" Service.Request.shutdown_response
    (List.nth responses 6);
  let mutate_resp = List.nth responses 4 in
  Alcotest.(check bool) "mutate stayed incremental" true
    (Helpers.contains mutate_resp {|"fallback":false|});
  (* the client observes its own write: stats before and after differ *)
  Alcotest.(check bool) "stats advanced" true (List.nth responses 0 <> List.nth responses 5)

let test_server_eof_and_errors () =
  let stop, responses =
    serve_script (store_of (Helpers.triangle ())) [ "garbage"; {|{"op":"stats"}|} ]
  in
  Alcotest.(check bool) "stopped on eof" true (stop = Service.Server.Eof);
  Alcotest.(check int) "both lines answered" 2 (List.length responses);
  Alcotest.(check bool) "parse error reported inline" true
    (Helpers.contains (List.nth responses 0) "error")

let test_server_rejects_out_of_range () =
  (* Out-of-range values in well-formed requests come back as inline
     errors; the daemon keeps serving the rest of the script. *)
  let script =
    [
      {|{"op":"maximize","k":5,"budget":5,"g_probes":0}|};
      {|{"op":"maximize","k":2,"budget":5}|};
      {|{"op":"truss-query","k":4,"limit":-1}|};
      {|{"op":"stats"}|};
      {|{"op":"shutdown"}|};
    ]
  in
  let stop, responses = serve_script (store_of (Helpers.triangle ())) script in
  Alcotest.(check bool) "still reached shutdown" true (stop = Service.Server.Shutdown_requested);
  Alcotest.(check int) "every line answered" (List.length script) (List.length responses);
  List.iteri
    (fun i r ->
      if i < 3 then
        Alcotest.(check bool) (Printf.sprintf "response %d is an error" i) true
          (Helpers.contains r "error"))
    responses;
  Alcotest.(check bool) "stats still served after errors" true
    (Helpers.contains (List.nth responses 3) {|"op":"stats"|})

let test_server_burst_and_long_lines () =
  (* Exercise the line reader's compaction and growth paths: a pipelined
     burst of many small requests plus one request line larger than the
     reader's initial 4 KiB buffer. *)
  let long_line =
    let pairs = List.init 1000 (fun i -> Printf.sprintf "[%d,%d]" i (i + 1)) in
    Printf.sprintf {|{"op":"trussness","edges":[%s]}|} (String.concat "," pairs)
  in
  let script =
    List.init 100 (fun _ -> {|{"op":"stats"}|}) @ [ long_line; {|{"op":"shutdown"}|} ]
  in
  let stop, responses = serve_script (store_of (Helpers.triangle ())) script in
  Alcotest.(check bool) "stopped on shutdown" true (stop = Service.Server.Shutdown_requested);
  Alcotest.(check int) "one response per request" (List.length script) (List.length responses);
  Alcotest.(check bool) "long trussness line answered" true
    (Helpers.contains (List.nth responses 100) {|"op":"trussness"|})

let test_server_deterministic_across_domains () =
  (* The same script against identical stores must produce byte-identical
     transcripts whether read batches run inline or on a 4-domain pool. *)
  let saved = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains saved) @@ fun () ->
  Par.set_domains 1;
  let _, one = serve_script (store_of (Helpers.two_cliques_shared_edge ())) script in
  Par.set_domains 4;
  let _, four = serve_script (store_of (Helpers.two_cliques_shared_edge ())) script in
  Alcotest.(check (list string)) "transcripts identical at 1 vs 4 domains" one four

(* --- request tracing ------------------------------------------------------ *)

let test_parse_traced () =
  let traced s = snd (Service.Request.parse_traced s) in
  Alcotest.(check (option string)) "string id re-rendered" (Some {|"req-1"|})
    (traced {|{"op":"stats","id":"req-1"}|});
  Alcotest.(check (option string)) "integer id re-rendered" (Some "7")
    (traced {|{"op":"stats","id":7}|});
  Alcotest.(check (option string)) "absent id" None (traced {|{"op":"stats"}|});
  Alcotest.(check (option string)) "array id ignored" None
    (traced {|{"op":"stats","id":[1]}|});
  Alcotest.(check (option string)) "fractional id ignored" None
    (traced {|{"op":"stats","id":1.5}|});
  Alcotest.(check (option string)) "id survives an unknown op" (Some {|"x"|})
    (traced {|{"op":"frobnicate","id":"x"}|});
  Alcotest.(check (option string)) "id escaping round-trips" (Some {|"a\"b"|})
    (traced {|{"op":"stats","id":"a\"b"}|});
  Alcotest.(check (option string)) "non-json line has no id" None (traced "garbage");
  Alcotest.(check string) "with_id splices before the first field"
    {|{"id":"a","op":"stats"}|}
    (Service.Request.with_id (Some {|"a"|}) {|{"op":"stats"}|});
  Alcotest.(check string) "with_id None is identity" {|{"op":"stats"}|}
    (Service.Request.with_id None {|{"op":"stats"}|})

let test_trace_id_echo () =
  let script =
    [
      {|{"op":"stats","id":"alpha"}|};
      {|{"op":"decompose"}|};
      {|{"op":"trussness","edges":[[0,1]],"id":7}|};
      {|{"op":"frobnicate","id":"bad"}|};
      {|{"op":"mutate","ops":[["insert",2,7]],"id":"mut"}|};
      {|{"op":"shutdown","id":"bye"}|};
    ]
  in
  let stop, responses = serve_script (store_of (Helpers.two_cliques_shared_edge ())) script in
  Alcotest.(check bool) "stopped on shutdown" true (stop = Service.Server.Shutdown_requested);
  Alcotest.(check int) "one response per request" (List.length script) (List.length responses);
  let starts i prefix =
    let r = List.nth responses i in
    Alcotest.(check bool)
      (Printf.sprintf "response %d starts with %s (got %s)" i prefix r)
      true
      (String.length r >= String.length prefix && String.sub r 0 (String.length prefix) = prefix)
  in
  starts 0 {|{"id":"alpha","op":"stats"|};
  starts 1 {|{"op":"decompose"|};
  Alcotest.(check bool) "untraced response carries no id" false
    (Helpers.contains (List.nth responses 1) {|"id"|});
  starts 2 {|{"id":7,"op":"trussness"|};
  (* even the inline parse error stays correlatable *)
  starts 3 {|{"id":"bad","error"|};
  starts 4 {|{"id":"mut","op":"mutate"|};
  starts 5 {|{"id":"bye",|};
  (* a traced transcript equals the untraced one modulo the id prefix *)
  let untraced =
    [
      {|{"op":"stats"}|};
      {|{"op":"decompose"}|};
      {|{"op":"trussness","edges":[[0,1]]}|};
      {|{"op":"frobnicate"}|};
      {|{"op":"mutate","ops":[["insert",2,7]]}|};
      {|{"op":"shutdown"}|};
    ]
  in
  let _, plain = serve_script (store_of (Helpers.two_cliques_shared_edge ())) untraced in
  let strip_id r =
    if String.length r > 6 && String.sub r 0 6 = {|{"id":|} then
      match String.index_opt r ',' with
      | Some i -> "{" ^ String.sub r (i + 1) (String.length r - i - 1)
      | None -> r
    else r
  in
  Alcotest.(check (list string)) "tracing changes nothing but the id prefix" plain
    (List.map strip_id responses)

let test_event_log_does_not_change_transcript () =
  let run () = serve_script (store_of (Helpers.two_cliques_shared_edge ())) script in
  let _, plain = run () in
  let path = Filename.temp_file "serve_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.close ();
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Obs.Events.configure path;
  let _, logged = run () in
  Obs.Events.close ();
  Alcotest.(check (list string)) "transcript byte-identical with event log on" plain logged;
  Alcotest.(check int) "one event per request" (List.length script) (Obs.Events.written ())

(* --- stats detail: plain-Atomic mirrors vs live Obs counters -------------- *)

let jget path json =
  List.fold_left
    (fun j key -> match j with Some j -> Json_min.member key j | None -> None)
    (Some json) path

let jint path json = Option.bind (jget path json) Json_min.to_int

let test_stats_detail_consistency () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let store = store_of (Gen.complete 6) in
  let mirror0 = Service.Mutation_log.fallback_count () in
  (* Forced-fallback burst: each batch inserts or deletes six pendant
     edges, more than a quarter of K6's 15 edges and of the 21 with them
     in, so every batch rebuilds and the plain-Atomic mirror (counts since
     process start) and the Obs counter (counts since reset, above) must
     advance in lockstep. *)
  let pendant = List.init 6 (fun i -> (50 + i, 60 + i)) in
  for i = 0 to 4 do
    let op (u, v) =
      if i mod 2 = 0 then Service.Mutation_log.Insert (u, v) else Service.Mutation_log.Delete (u, v)
    in
    ignore (Service.Mutation_log.apply store (List.map op pendant))
  done;
  let epoch = Service.Store.current store in
  let resp =
    Service.Request.handle_read ~epoch (Service.Request.Stats { detail = true })
  in
  let json =
    match Json_min.parse resp with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats detail response is not JSON (%s): %s" e resp
  in
  Alcotest.(check (option int)) "mirror advanced by the burst" (Some (mirror0 + 5))
    (jint [ "maintain_fallbacks" ] json);
  Alcotest.(check bool) "obs section reports collection on" true
    (jget [ "obs"; "enabled" ] json = Some (Json_min.Bool true));
  Alcotest.(check (option int)) "obs fallback counter agrees with the mirror delta"
    (Some 5)
    (jint [ "obs"; "counters"; "service.maintain_fallbacks" ] json);
  Alcotest.(check (option int)) "obs batch counter saw the burst" (Some 5)
    (jint [ "obs"; "counters"; "service.batches" ] json);
  (* the split quantiles are always present in detail mode *)
  Alcotest.(check bool) "queue_wait quantiles present" true
    (jget [ "obs"; "latency_ns"; "queue_wait"; "p99" ] json <> None);
  Alcotest.(check bool) "exec quantiles present" true
    (jget [ "obs"; "latency_ns"; "exec"; "count" ] json <> None);
  (* without detail the response stays the deterministic protocol shape *)
  let plain =
    Service.Request.handle_read ~epoch (Service.Request.Stats { detail = false })
  in
  Alcotest.(check bool) "no obs section without detail" false
    (Helpers.contains plain {|"obs"|})

(* --- live /metrics scrape while serving ----------------------------------- *)

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

let http_body response =
  let n = String.length response in
  let rec at i =
    if i + 4 > n then None
    else if String.sub response i 4 = "\r\n\r\n" then Some i
    else at (i + 1)
  in
  match at 0 with
  | Some i -> String.sub response (i + 4) (n - i - 4)
  | None -> Alcotest.failf "scrape response lacks an HTTP header: %s" response

let test_live_scrape_during_replay () =
  Obs.reset ();
  Obs.set_enabled true;
  let dir = Filename.temp_file "scrape" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "metrics.sock" in
  let listen_fd = Service.Metrics_endpoint.bind_unix ~path:sock in
  Fun.protect
    ~finally:(fun () ->
      Service.Metrics_endpoint.close_unix ~path:sock listen_fd;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let store = store_of (Helpers.two_cliques_shared_edge ()) in
  let client =
    Domain.spawn (fun () ->
        let send lines =
          let p = String.concat "\n" lines ^ "\n" in
          ignore (Unix.write_substring in_w p 0 (String.length p))
        in
        let ic = Unix.in_channel_of_descr out_r in
        (* replay a read burst and wait for the responses, so the
           queue-wait/exec histograms hold data before we scrape *)
        send
          [
            {|{"op":"stats"}|};
            {|{"op":"decompose"}|};
            {|{"op":"trussness","edges":[[0,1],[5,6]]}|};
          ];
        let r1 = input_line ic in
        let r2 = input_line ic in
        let r3 = input_line ic in
        (* the server is now parked in its idle select — scrape it live *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let req = "GET /metrics HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let scrape = read_all fd in
        Unix.close fd;
        send [ {|{"op":"shutdown"}|} ];
        let r4 = input_line ic in
        Unix.close in_w;
        ([ r1; r2; r3; r4 ], scrape))
  in
  let stop = Service.Server.serve_fd ~metrics:listen_fd store ~input:in_r ~output:out_w in
  let responses, scrape = Domain.join client in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close out_r;
  Alcotest.(check bool) "stopped on shutdown" true (stop = Service.Server.Shutdown_requested);
  Alcotest.(check int) "all four requests answered" 4 (List.length responses);
  Alcotest.(check bool) "scrape is an HTTP 200" true
    (Helpers.contains scrape "HTTP/1.0 200");
  let body = http_body scrape in
  (match Obs.lint_openmetrics body with
  | Ok lines -> Alcotest.(check bool) "scrape non-trivial" true (lines > 10)
  | Error e -> Alcotest.failf "live scrape fails the OpenMetrics lint: %s" e);
  Alcotest.(check bool) "queue-wait histogram populated in the live scrape" true
    (Helpers.contains body "maxtruss_service_queue_wait_ns_bucket");
  Alcotest.(check bool) "per-op latency family present" true
    (Helpers.contains body "maxtruss_request_duration_ns");
  Alcotest.(check bool) "request counter present" true
    (Helpers.contains body "maxtruss_service_requests")

(* --- zero overhead when dark ---------------------------------------------- *)

let test_telemetry_dark_zero_alloc () =
  Obs.set_enabled false;
  Alcotest.(check bool) "telemetry inactive" false (Service.Telemetry.active ());
  let burn () =
    Service.Telemetry.record ~op:"hot" ~id:None ~gen:3 ~epoch_age:1 ~queue_ns:10
      ~exec_ns:20 ~batch_size:4 ~batch_pos:2 ~ok:true;
    Service.Telemetry.batch_started 4;
    Service.Telemetry.batch_finished ()
  in
  burn ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    burn ()
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "dark telemetry path allocation-free (got %.0f words)" allocated)
    true
    (allocated <= 16.)

let test_maximize_leaves_epoch_intact () =
  let epoch = Service.Epoch.create (Helpers.two_cliques_shared_edge ()) in
  let edges_before = Service.Epoch.num_edges epoch in
  let req =
    Service.Request.Maximize
      { k = 5; budget = 4; algo = Service.Request.Pcfr; seed = 42; g_probes = None }
  in
  let a = Service.Request.handle_read ~epoch req in
  let b = Service.Request.handle_read ~epoch req in
  Alcotest.(check string) "maximize deterministic" a b;
  Alcotest.(check int) "epoch graph untouched" edges_before (Service.Epoch.num_edges epoch)

let suite =
  [
    Alcotest.test_case "reader pins its epoch" `Quick test_reader_pins_epoch;
    Alcotest.test_case "concurrent reader vs writer" `Quick test_concurrent_reader;
    Alcotest.test_case "onion memo idempotent" `Quick test_onion_memo_idempotent;
    Helpers.qtest prop_apply_matches_rebuild;
    Helpers.qtest prop_apply_counts_net_changes;
    Alcotest.test_case "normalization cancels no-ops" `Quick test_normalization_cancels;
    Alcotest.test_case "fallback threshold" `Quick test_fallback_threshold;
    Alcotest.test_case "parse: valid requests" `Quick test_parse_ok;
    Alcotest.test_case "parse: invalid requests" `Quick test_parse_errors;
    Alcotest.test_case "server round trip" `Quick test_server_round_trip;
    Alcotest.test_case "server eof + parse errors" `Quick test_server_eof_and_errors;
    Alcotest.test_case "server rejects out-of-range values" `Quick test_server_rejects_out_of_range;
    Alcotest.test_case "server burst + long lines" `Quick test_server_burst_and_long_lines;
    Alcotest.test_case "server deterministic at 1 vs 4 domains" `Quick
      test_server_deterministic_across_domains;
    Alcotest.test_case "parse_traced + with_id" `Quick test_parse_traced;
    Alcotest.test_case "trace ids echoed on every response" `Quick test_trace_id_echo;
    Alcotest.test_case "event log leaves the transcript untouched" `Quick
      test_event_log_does_not_change_transcript;
    Alcotest.test_case "stats detail: mirrors agree with obs counters" `Quick
      test_stats_detail_consistency;
    Alcotest.test_case "live /metrics scrape during a replay" `Quick
      test_live_scrape_during_replay;
    Alcotest.test_case "dark telemetry path allocates nothing" `Quick
      test_telemetry_dark_zero_alloc;
    Alcotest.test_case "maximize copies the graph" `Quick test_maximize_leaves_epoch_intact;
  ]
