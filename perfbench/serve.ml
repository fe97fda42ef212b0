(* The maxtruss-serve side of the benchmark: spawning the daemon, one
   single-threaded client talking its line protocol over pipes, the
   seeded request/mutation streams, and the in-process mirror that checks
   every answer against a freshly built epoch. *)

open Graphcore
open Common

(* {2 The daemon process} *)

type daemon = { pid : int; oc : out_channel; ic : in_channel }

let live : daemon list ref = ref []

let spawn ~exe ~extra ~log =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (out_path log) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let args = [ exe; "-d"; dataset; "--domains"; "1"; "--stdin" ] @ extra in
  let pid = Unix.create_process (List.hd args) (Array.of_list args) in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  let d = { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r } in
  live := d :: !live;
  d

let send d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc

let recv d = input_line d.ic

let request d line =
  send d line;
  recv d

let reap_grace_s = 20.

(* Wait for the process, escalating to SIGKILL if it has not exited
   within [reap_grace_s]. *)
let reap pid =
  let deadline = now () +. reap_grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Orderly stop: shutdown request, drain whatever the daemon prints on its
   way out, close both pipes, reap. *)
let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try
       send d {|{"op":"shutdown"}|};
       while true do
         ignore (recv d)
       done
     with End_of_file | Sys_error _ -> ());
    (try close_out d.oc with Sys_error _ -> ());
    close_in_noerr d.ic;
    reap d.pid
  end

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      close_out_noerr d.oc;
      close_in_noerr d.ic;
      reap d.pid)
    !live;
  live := []

(* {2 The mirror} *)

(* The client's own copy of the daemon's graph, updated with every batch
   it sends, plus the generation the daemon should be at. *)
type mirror = { g : Graph.t; mutable gen : int; nodes : int array }

let mirror_of g =
  let acc = ref [] in
  Graph.iter_nodes g (fun u -> acc := u :: !acc);
  let nodes = Array.of_list !acc in
  Array.sort Int.compare nodes;
  { g = Graph.copy g; gen = 0; nodes }

(* The oracle: a one-shot epoch built from scratch on the mirror graph,
   stamped with the generation the daemon reports. *)
let oracle m = Service.Epoch.create ~generation:m.gen m.g

(* The oracle's answer to [line], with the op name that is its check
   class. *)
let expected_response epoch line =
  match Service.Request.parse line with
  | Ok req -> (Service.Request.op_name req, Service.Request.handle_read ~epoch req)
  | Error e -> ("unparseable", "unparseable request: " ^ e)

let is_error resp = String.length resp >= 8 && String.sub resp 0 8 = "{\"error\""

(* {2 Request streams} *)

let pairs_json pairs = String.concat "," (List.map (fun (u, v) -> Printf.sprintf "[%d,%d]" u v) pairs)

(* Read mix, per block of 1000 requests (exact counts, seeded shuffle).
   Light requests (stats, 32-pair trussness, warm onion with limit 100)
   cost tens of microseconds each, so a batch of them is bound by compute,
   not by the pipe round trip; heavy ones (decompose ~8 ms, truss-query at
   k = 3 ~12 ms) are 0.8% of the mix, so ~6% of 8-request batches hold one.
   p50 sits deep inside the light batches and p99 inside the one-heavy
   ones, clear of both class boundaries (see NOTES.md). *)
let read_mix = [ (`Stats, 100); (`Trussness, 500); (`Onion, 374); (`Truss_query, 21); (`Decompose, 5) ]

type read_stream = {
  rng : Rng.t;
  kmax : int;
  edges : Edge_key.t array;
  nodes : int array;
  mutable block : [ `Stats | `Trussness | `Onion | `Truss_query | `Decompose ] array;
  mutable pos : int;
  mutable tq : int;  (** truss-queries issued so far: k cycles over [3, kmax] *)
}

(* Same seed and mirror state, same requests: the stream is replayed to
   check the answers after the window instead of kept while measuring. *)
let read_stream ~seed ~kmax m =
  let edges = Graph.edge_array m.g in
  Array.sort Edge_key.compare edges;
  { rng = Rng.create seed; kmax; edges; nodes = m.nodes; block = [||]; pos = 0; tq = 0 }

(* The next request line, with its op name (the line's check class). *)
let next_read s =
  if s.pos >= Array.length s.block then begin
    s.block <- Array.of_list (List.concat_map (fun (op, n) -> List.init n (fun _ -> op)) read_mix);
    Rng.shuffle s.rng s.block;
    s.pos <- 0
  end;
  let op = s.block.(s.pos) in
  s.pos <- s.pos + 1;
  match op with
  | `Stats -> ("stats", {|{"op":"stats"}|})
  | `Decompose -> ("decompose", {|{"op":"decompose"}|})
  | `Onion -> ("onion", Printf.sprintf {|{"op":"onion","k":%d,"limit":100}|} k)
  | `Truss_query ->
    let kq = 3 + (s.tq mod max 1 (s.kmax - 2)) in
    s.tq <- s.tq + 1;
    ("truss-query", Printf.sprintf {|{"op":"truss-query","k":%d,"limit":20}|} kq)
  | `Trussness ->
    let live = List.init 16 (fun _ -> Edge_key.endpoints (Rng.pick s.rng s.edges)) in
    let random = List.init 16 (fun _ -> (Rng.pick s.rng s.nodes, Rng.pick s.rng s.nodes)) in
    ("trussness", Printf.sprintf {|{"op":"trussness","edges":[%s]}|} (pairs_json (live @ random)))

(* One churn batch against the mirror: 2 random absent pairs, 2 absent
   pairs closing a wedge (friend-of-friend links, which do promote edges),
   3 deletions of live edges.  Already normalized — distinct, absent/live,
   disjoint — so the daemon must report exactly 4 inserted, 3 deleted. *)
let churn_batch ~rng m =
  let chosen = Hashtbl.create 8 in
  let fresh u v =
    u <> v && (not (Graph.mem_edge m.g u v)) && not (Hashtbl.mem chosen (Edge_key.make u v))
  in
  let take u v = Hashtbl.replace chosen (Edge_key.make u v) () in
  let rec random_pair () =
    let u = Rng.pick rng m.nodes and v = Rng.pick rng m.nodes in
    if fresh u v then (take u v; (u, v)) else random_pair ()
  in
  let rec wedge_pair () =
    let u = Rng.pick rng m.nodes in
    match Graph.neighbors m.g u with
    | [] -> wedge_pair ()
    | nu -> (
      let w = List.nth nu (Rng.int rng (List.length nu)) in
      match List.filter (fun v -> fresh u v) (Graph.neighbors m.g w) with
      | [] -> wedge_pair ()
      | cands ->
        let v = List.nth cands (Rng.int rng (List.length cands)) in
        take u v;
        (u, v))
  in
  let ins = [ random_pair (); random_pair (); wedge_pair (); wedge_pair () ] in
  let edges = Graph.edge_array m.g in
  let rec live_edge () =
    let u, v = Edge_key.endpoints (Rng.pick rng edges) in
    if Hashtbl.mem chosen (Edge_key.make u v) then live_edge () else (take u v; (u, v))
  in
  let del = [ live_edge (); live_edge (); live_edge () ] in
  (ins, del)

let mutate_line (ins, del) =
  let op tag (u, v) = Printf.sprintf {|["%s",%d,%d]|} tag u v in
  Printf.sprintf {|{"op":"mutate","ops":[%s]}|}
    (String.concat "," (List.map (op "insert") ins @ List.map (op "delete") del))

let apply_batch m (ins, del) =
  List.iter (fun (u, v) -> ignore (Graph.add_edge m.g u v)) ins;
  List.iter (fun (u, v) -> ignore (Graph.remove_edge m.g u v)) del;
  m.gen <- m.gen + 1

let json_int json name = Option.bind (Json_min.member name json) Json_min.to_int

(* {2 Phases} *)

(* Digests of the daemon's answers, 16 bytes each in one flat buffer: while
   it measures, the client keeps no per-request heap data, so its own GC
   stays out of the latency samples. *)
module Digests = struct
  type t = { mutable b : Bytes.t; mutable n : int }

  let create () = { b = Bytes.create (16 * 4096); n = 0 }

  let add t d =
    if 16 * (t.n + 1) > Bytes.length t.b then begin
      let bigger = Bytes.create (2 * Bytes.length t.b) in
      Bytes.blit t.b 0 bigger 0 (16 * t.n);
      t.b <- bigger
    end;
    Bytes.blit_string d 0 t.b (16 * t.n) 16;
    t.n <- t.n + 1

  let get t i = Bytes.sub_string t.b (16 * i) 16
end

(* Stands in for the digest of an error response, which is counted as
   failed on the spot; verification skips it. *)
let error_marker = String.make 16 '\000'

(* Account for one answered read of class [op]: tally, error check,
   digest. *)
let answered digests ~op resp =
  attempt op;
  if is_error resp then begin
    fail op "error response: %s" resp;
    Digests.add digests error_marker
  end
  else Digests.add digests (Digest.string resp)

(* Compare the answers to [lines], stored from position [first] on,
   with the oracle epoch's; identical lines are evaluated once. *)
let verify_answers ~epoch ~digests ~first lines =
  let memo = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      let op, expected =
        match Hashtbl.find_opt memo line with
        | Some x -> x
        | None ->
          let op, resp = expected_response epoch line in
          let x = (op, Digest.string resp) in
          Hashtbl.replace memo line x;
          x
      in
      let got = Digests.get digests (first + i) in
      if got <> error_marker && got <> expected then
        fail op "generation %d: response to %s differs from the oracle" (Service.Epoch.generation epoch) line)
    lines

type read_result = {
  lat : Samples.t;
  reads : int;
  elapsed : float;
  digests : Digests.t;
}

(* Requests in flight on a read window's connection. *)
let window = 8

(* Closed loop with [window] requests outstanding on one connection: each
   response read frees a slot for the next request.  Latency runs from the
   line being written to its response line being read. *)
let read_window d stream ~seconds =
  let lat = Samples.create () and digests = Digests.create () in
  let in_flight = Queue.create () in
  let t_start = now () in
  let sent = ref 0 and received = ref 0 in
  let sending () = now () -. t_start < seconds in
  while !received < !sent || sending () do
    while !sent - !received < window && sending () do
      let op, line = next_read stream in
      send d line;
      Queue.push (now (), op) in_flight;
      incr sent
    done;
    let resp = recv d in
    let t_sent, op = Queue.pop in_flight in
    Samples.add lat (now () -. t_sent);
    incr received;
    answered digests ~op resp
  done;
  { lat; reads = !received; elapsed = now () -. t_start; digests }

(* p50 and p99 over every read of the windows (nearest rank), and reads
   per wall-second of the windows. *)
let read_summary rs =
  let lat = Array.concat (List.map (fun r -> Samples.to_array r.lat) rs) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  (quantile_arr lat 0.50, quantile_arr lat 0.99, sum (fun r -> float_of_int r.reads) /. sum (fun r -> r.elapsed))

(* Check every answer of window [r] against [epoch], replaying [stream]:
   a fresh copy of the stream the window drew from, advanced past the
   windows before it. *)
let verify_reads ~epoch stream r =
  verify_answers ~epoch ~digests:r.digests ~first:0 (List.init r.reads (fun _ -> snd (next_read stream)))

(* The reads after each mutate, against the new epoch: read-your-writes
   trussness of the inserted and of the deleted pairs, five low-k
   truss-queries (k = 4, limits 10 to 50, as from several clients) and an
   onion at the default k, whose per-epoch memo is cold.  Sorted by cost
   the classes are 2/8 trussness (~0.1 ms), 5/8 truss-query (~2.5 ms) and
   1/8 onion (~8 ms): p50 falls 40% into the truss-query class and p99 at
   the onion's own p92, about ten samples beyond it in a 20 s window —
   clear of both class boundaries (see NOTES.md).  k = 3 would make the
   truss-query's GC-driven tail, not the onion, set p99. *)
let reads_of_round (ins, del) =
  [
    ("trussness", Printf.sprintf {|{"op":"trussness","edges":[%s]}|} (pairs_json ins));
    ("trussness", Printf.sprintf {|{"op":"trussness","edges":[%s]}|} (pairs_json del));
  ]
  @ List.init 5 (fun i -> ("truss-query", Printf.sprintf {|{"op":"truss-query","k":4,"limit":%d}|} (10 * (i + 1))))
  @ [ ("onion", Printf.sprintf {|{"op":"onion","k":%d,"limit":50}|} k) ]

type churn_result = {
  mutate_lat : Samples.t;
  read_lat : Samples.t;
  batches : ((int * int) list * (int * int) list) list;  (** in the order sent *)
  churn_reads : int;
  active : float;  (** wall time of the rounds, batch generation excluded *)
  read_digests : Digests.t;
}

(* One request outstanding; each round is a mutate batch and its reads.
   Mutate answers are checked on the spot against the mirror. *)
let churn_window d m ~rng ~seconds ~max_rounds =
  let mutate_lat = Samples.create () and read_lat = Samples.create () in
  let read_digests = Digests.create () in
  let batches = ref [] and active = ref 0. and reads = ref 0 in
  let t_start = now () in
  while List.length !batches < max_rounds && now () -. t_start < seconds do
    let batch = churn_batch ~rng m in
    let line = mutate_line batch in
    let t_round = now () in
    let resp = request d line in
    Samples.add mutate_lat (now () -. t_round);
    apply_batch m batch;
    batches := batch :: !batches;
    let expected =
      match Json_min.parse resp with
      | Ok json ->
        List.for_all
          (fun (name, v) -> json_int json name = Some v)
          [ ("generation", m.gen); ("inserted", 4); ("deleted", 3); ("ignored", 0) ]
        && Json_min.member "fallback" json = Some (Json_min.Bool false)
      | Error _ -> false
    in
    check "mutate" expected "mutate at generation %d: expected 4 inserted, 3 deleted, no fallback; got %s" m.gen
      resp;
    List.iter
      (fun (op, line) ->
        let t0 = now () in
        let resp = request d line in
        Samples.add read_lat (now () -. t0);
        incr reads;
        answered read_digests ~op resp)
      (reads_of_round batch);
    active := !active +. (now () -. t_round)
  done;
  {
    mutate_lat;
    read_lat;
    batches = List.rev !batches;
    churn_reads = !reads;
    active = !active;
    read_digests;
  }

(* Replay the batches on [m], a mirror of the graph the window started
   from, and check the reads of every [every]-th round, and of the last,
   against a one-shot epoch.  [m] ends in the state the window left. *)
let verify_churn ~every m c =
  let last = List.length c.batches - 1 in
  List.iteri
    (fun r batch ->
      apply_batch m batch;
      if r mod every = 0 || r = last then
        verify_answers ~epoch:(oracle m) ~digests:c.read_digests
          ~first:(r * List.length (reads_of_round batch))
          (List.map snd (reads_of_round batch)))
    c.batches

let stats_line = {|{"op":"stats"}|}

(* Start a daemon and time it to its first answered request, a stats
   read; its answer is returned for the caller to check. *)
let start ~exe ~extra ~log =
  let t0 = now () in
  let d = spawn ~exe ~extra ~log in
  let resp = request d stats_line in
  (d, now () -. t0, resp)

let check_stats ~epoch resp =
  let _, expected = expected_response epoch stats_line in
  check "setup" (resp = expected) "stats answer %s, expected %s" resp expected
