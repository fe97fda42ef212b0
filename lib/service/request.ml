open Graphcore

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

let op_name = function
  | Decompose -> "decompose"
  | Trussness _ -> "trussness"
  | Truss_query _ -> "truss-query"
  | Onion _ -> "onion"
  | Maximize _ -> "maximize"
  | Mutate _ -> "mutate"
  | Stats _ -> "stats"
  | Shutdown -> "shutdown"

let is_read = function
  | Decompose | Trussness _ | Truss_query _ | Onion _ | Maximize _ | Stats _ -> true
  | Mutate _ | Shutdown -> false

(* {2 Parsing} *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field_int ?default json name =
  match Json_min.member name json with
  | None -> ( match default with Some d -> Ok d | None -> Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
    match Json_min.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let require cond msg = if cond then Ok () else Error msg

let field_int_opt json name =
  match Json_min.member name json with
  | None -> Ok None
  | Some v -> (
    match Json_min.to_int v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let parse_pair name v =
  match Json_min.to_arr v with
  | Some [ a; b ] -> (
    match (Json_min.to_int a, Json_min.to_int b) with
    | Some u, Some v -> Ok (u, v)
    | _ -> Error (Printf.sprintf "%s entries must be pairs of integers" name))
  | _ -> Error (Printf.sprintf "%s entries must be pairs of integers" name)

let parse_edges json =
  match Json_min.member "edges" json with
  | None -> Error "missing field \"edges\""
  | Some v -> (
    match Json_min.to_arr v with
    | None -> Error "field \"edges\" must be an array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
          let* p = parse_pair "\"edges\"" item in
          go (p :: acc) rest
      in
      go [] items)

let parse_mutation_ops json =
  match Json_min.member "ops" json with
  | None -> Error "missing field \"ops\""
  | Some v -> (
    match Json_min.to_arr v with
    | None -> Error "field \"ops\" must be an array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
          match Json_min.to_arr item with
          | Some [ tag; a; b ] -> (
            match (Json_min.to_str tag, Json_min.to_int a, Json_min.to_int b) with
            | Some "insert", Some u, Some v -> go (Mutation_log.Insert (u, v) :: acc) rest
            | Some "delete", Some u, Some v -> go (Mutation_log.Delete (u, v) :: acc) rest
            | _ -> Error "\"ops\" entries must be [\"insert\"|\"delete\", u, v]")
          | _ -> Error "\"ops\" entries must be [\"insert\"|\"delete\", u, v]")
      in
      go [] items)

let of_json json =
  (
    match Option.bind (Json_min.member "op" json) Json_min.to_str with
    | None -> Error "missing field \"op\""
    | Some "decompose" -> Ok Decompose
    | Some "trussness" ->
      let* edges = parse_edges json in
      Ok (Trussness edges)
    | Some "truss-query" ->
      let* k = field_int json "k" in
      let* limit = field_int_opt json "limit" in
      let* () = require (k >= 0) "field \"k\" must be non-negative" in
      let* () =
        require (match limit with Some n -> n >= 0 | None -> true) "field \"limit\" must be non-negative"
      in
      Ok (Truss_query { k; limit })
    | Some "onion" ->
      let* k = field_int json "k" in
      let* limit = field_int_opt json "limit" in
      let* () = require (k >= 0) "field \"k\" must be non-negative" in
      let* () =
        require (match limit with Some n -> n >= 0 | None -> true) "field \"limit\" must be non-negative"
      in
      Ok (Onion { k; limit })
    | Some "maximize" ->
      let* k = field_int json "k" in
      let* budget = field_int json "budget" in
      let* seed = field_int ~default:42 json "seed" in
      let* g_probes = field_int_opt json "g_probes" in
      (* Same ranges the one-shot CLI enforces; rejecting here keeps a bad
         request from reaching evaluators that raise Invalid_argument. *)
      let* () = require (k >= 3) "field \"k\" must be at least 3" in
      let* () = require (budget >= 0) "field \"budget\" must be non-negative" in
      let* () =
        require (match g_probes with Some p -> p >= 1 | None -> true) "field \"g_probes\" must be positive"
      in
      let* algo =
        match Json_min.member "algo" json with
        | None -> Ok Pcfr
        | Some v -> (
          match Json_min.to_str v with
          | Some "pcfr" -> Ok Pcfr
          | Some "pcf" -> Ok Pcf
          | Some "pcr" -> Ok Pcr
          | _ -> Error "field \"algo\" must be \"pcfr\", \"pcf\" or \"pcr\"")
      in
      Ok (Maximize { k; budget; algo; seed; g_probes })
    | Some "mutate" ->
      let* ops = parse_mutation_ops json in
      Ok (Mutate ops)
    | Some "stats" ->
      let* detail =
        match Json_min.member "detail" json with
        | None -> Ok false
        | Some (Json_min.Bool b) -> Ok b
        | Some _ -> Error "field \"detail\" must be a boolean"
      in
      Ok (Stats { detail })
    | Some "shutdown" -> Ok Shutdown
    | Some other -> Error (Printf.sprintf "unknown op %S" other))

let parse line =
  match Json_min.parse line with
  | Error e -> Error ("invalid json: " ^ e)
  | Ok json -> of_json json

(* The trace id is echoed, never generated: a request without an ["id"]
   field produces byte-identical responses to the untraced protocol (the
   serve-smoke golden depends on that).  Strings and integers are
   re-rendered as JSON literals; other shapes are ignored. *)
let render_id v =
  match v with
  | Json_min.Str s -> Some ("\"" ^ Json_min.escape s ^ "\"")
  | Json_min.Num f when Float.is_integer f && Float.abs f < 1e15 -> Some (Printf.sprintf "%.0f" f)
  | _ -> None

let parse_traced line =
  match Json_min.parse line with
  | Error e -> (Error ("invalid json: " ^ e), None)
  | Ok json -> (of_json json, Option.bind (Json_min.member "id" json) render_id)

(* Every response line is a JSON object, so echoing the id is a splice
   right after the opening brace — responses without an id keep their
   exact historical bytes. *)
let with_id id resp =
  match id with
  | None -> resp
  | Some v ->
    let b = Buffer.create (String.length resp + String.length v + 8) in
    Buffer.add_string b "{\"id\":";
    Buffer.add_string b v;
    Buffer.add_char b ',';
    Buffer.add_substring b resp 1 (String.length resp - 1);
    Buffer.contents b

(* {2 Responses} *)

let error_response msg = Printf.sprintf "{\"error\":\"%s\"}" (Json_min.escape msg)

let shutdown_response = "{\"op\":\"shutdown\",\"ok\":true}"

let buf_pairs b pairs =
  Buffer.add_char b '[';
  List.iteri
    (fun i (u, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" u v))
    pairs;
  Buffer.add_char b ']'

(* Tail-recursive: a large [limit] on a big truss must not blow the stack. *)
let truncate limit l =
  match limit with
  | None -> l
  | Some n ->
    let rec take acc n = function
      | x :: rest when n > 0 -> take (x :: acc) (n - 1) rest
      | _ -> List.rev acc
    in
    take [] (max 0 n) l

let handle_read ~epoch req =
  let b = Buffer.create 256 in
  let gen = Epoch.generation epoch in
  let header op = Buffer.add_string b (Printf.sprintf "{\"op\":\"%s\",\"generation\":%d" op gen) in
  (match req with
  | Decompose ->
    header "decompose";
    Buffer.add_string b (Printf.sprintf ",\"edges\":%d,\"kmax\":%d,\"classes\":[" (Epoch.num_edges epoch) (Epoch.kmax epoch));
    List.iteri
      (fun i (k, c) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "[%d,%d]" k c))
      (Truss.Decompose.class_sizes (Epoch.decompose epoch));
    Buffer.add_string b "]}"
  | Trussness edges ->
    header "trussness";
    Buffer.add_string b ",\"results\":[";
    List.iteri
      (fun i (u, v) ->
        if i > 0 then Buffer.add_char b ',';
        let tau =
          if u <> v && u >= 0 && v >= 0 && u < Edge_key.max_node && v < Edge_key.max_node then
            Option.value ~default:0 (Truss.Index.trussness (Epoch.index epoch) (Edge_key.make u v))
          else 0
        in
        Buffer.add_string b (Printf.sprintf "[%d,%d,%d]" u v tau))
      edges;
    Buffer.add_string b "]}"
  | Truss_query { k; limit } ->
    header "truss-query";
    let edges = Truss.Index.truss_edges (Epoch.index epoch) k |> List.sort Edge_key.compare in
    Buffer.add_string b (Printf.sprintf ",\"k\":%d,\"size\":%d,\"edges\":" k (List.length edges));
    buf_pairs b (truncate limit edges |> List.map Edge_key.endpoints);
    Buffer.add_char b '}'
  | Onion { k; limit } ->
    header "onion";
    let layers, max_layer = Epoch.onion_layers epoch ~k in
    Buffer.add_string b
      (Printf.sprintf ",\"k\":%d,\"candidates\":%d,\"max_layer\":%d,\"layers\":[" k (List.length layers) max_layer);
    List.iteri
      (fun i (key, layer) ->
        if i > 0 then Buffer.add_char b ',';
        let u, v = Edge_key.endpoints key in
        Buffer.add_string b (Printf.sprintf "[%d,%d,%d]" u v layer))
      (truncate limit layers);
    Buffer.add_string b "]}"
  | Maximize { k; budget; algo; seed; g_probes } ->
    header "maximize";
    (* PCFR never writes to its input: its first level reads the epoch's
       graph as it is, and a later level works on a private copy. *)
    let g = Epoch.graph epoch in
    let run = match algo with Pcfr -> Maxtruss.Pcfr.pcfr | Pcf -> Maxtruss.Pcfr.pcf | Pcr -> Maxtruss.Pcfr.pcr in
    let res = run ~seed ?g_probes ~g ~k ~budget () in
    let inserted =
      List.sort
        (fun (a, b) (c, d) -> Edge_key.compare (Edge_key.make a b) (Edge_key.make c d))
        res.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted
    in
    Buffer.add_string b
      (Printf.sprintf ",\"k\":%d,\"budget\":%d,\"score\":%d,\"inserted\":" k budget
         res.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.score);
    buf_pairs b inserted;
    Buffer.add_char b '}'
  | Stats { detail } ->
    header "stats";
    Buffer.add_string b
      (Printf.sprintf ",\"nodes\":%d,\"edges\":%d,\"kmax\":%d,\"maintain_fallbacks\":%d"
         (Epoch.num_nodes epoch) (Epoch.num_edges epoch) (Epoch.kmax epoch)
         (Mutation_log.fallback_count ()));
    (* Detail mode reports the live telemetry registry (Obs counters and
       per-op latency quantiles) next to the plain-Atomic mirror above.
       Deliberately opt-in: quantiles are wall-clock-dependent, and the
       default stats response must stay a deterministic function of the
       epoch (the serve-smoke golden runs with collection enabled). *)
    if detail then begin
      Buffer.add_string b ",\"obs\":";
      Buffer.add_string b (Telemetry.stats_obs_json ())
    end;
    Buffer.add_char b '}'
  | Mutate _ | Shutdown -> invalid_arg "Request.handle_read: not a read request");
  Buffer.contents b

let handle_mutate ~store ops =
  let o = Mutation_log.apply store ops in
  Printf.sprintf
    "{\"op\":\"mutate\",\"generation\":%d,\"inserted\":%d,\"deleted\":%d,\"ignored\":%d,\"fallback\":%b,\"levels\":%d,\"region_edges\":%d}"
    (Epoch.generation o.Mutation_log.epoch)
    o.Mutation_log.inserted o.Mutation_log.deleted o.Mutation_log.ignored o.Mutation_log.fallback
    o.Mutation_log.levels o.Mutation_log.region_edges
