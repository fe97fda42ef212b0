(* Benchmark baselines: median/MAD summaries of Bechamel sample runs, a
   schema-versioned JSON file format, and the comparator behind
   `bench --check` (the CI perf gate).  Medians and MADs rather than means
   and standard deviations: one descheduled sample on a shared runner
   shifts a mean arbitrarily far but moves a median by at most one rank. *)

type entry = {
  name : string;
  median_ns : float;
  mad_ns : float;
  samples : int;
  alloc_w : float;
}

type t = { entries : entry list }

let schema_name = "maxtruss-perf-baseline"

let schema_version = 3

(* --- robust statistics -------------------------------------------------- *)

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))
  end

let mad xs =
  if Array.length xs = 0 then 0.
  else begin
    let m = median xs in
    median (Array.map (fun x -> Float.abs (x -. m)) xs)
  end

let of_samples ~name ~ns ~alloc_w =
  {
    name;
    median_ns = median ns;
    mad_ns = mad ns;
    samples = Array.length ns;
    alloc_w = median alloc_w;
  }

(* --- file format -------------------------------------------------------- *)

let fnum f = if Float.is_finite f then Printf.sprintf "%.3f" f else "0"

let to_json t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"%s\",\n" schema_name;
  add "  \"version\": %d,\n" schema_version;
  add "  \"entries\": [";
  List.iteri
    (fun i e ->
      add
        "%s\n    { \"name\": \"%s\", \"median_ns\": %s, \"mad_ns\": %s, \"samples\": %d, \
         \"alloc_w\": %s }"
        (if i = 0 then "" else ",")
        (Json_min.escape e.name) (fnum e.median_ns) (fnum e.mad_ns) e.samples (fnum e.alloc_w))
    t.entries;
  add "%s]\n}\n" (if t.entries = [] then "" else "\n  ");
  Buffer.contents buf

let of_json s =
  match Json_min.parse s with
  | Error e -> Error ("baseline parse error: " ^ e)
  | Ok j -> (
    match (Json_min.(member "schema" j |> Option.map to_str), Json_min.member "version" j) with
    | Some (Some schema), _ when schema <> schema_name ->
      Error (Printf.sprintf "schema mismatch: expected %S, got %S" schema_name schema)
    | None, _ | Some None, _ -> Error "schema mismatch: missing \"schema\" field"
    | _, v when Json_min.num_or (-1.) v <> float_of_int schema_version ->
      Error
        (Printf.sprintf "schema version mismatch: expected %d, got %g" schema_version
           (Json_min.num_or (-1.) v))
    | _ -> (
      match Json_min.(member "entries" j |> Option.map to_arr) with
      | Some (Some items) ->
        (* Every malformed entry reports one line of context: which kernel
           (name, or position when the name itself is missing) and which
           field.  Absent numeric fields default; fields present with the
           wrong type are an error, not a silent zero. *)
        let parse_entry i it =
          match Json_min.(member "name" it |> Option.map to_str) with
          | None | Some None ->
            Error (Printf.sprintf "entry %d: missing or non-string \"name\" field" (i + 1))
          | Some (Some name) -> (
            let num ~default field =
              match Json_min.member field it with
              | None -> Ok default
              | Some v -> (
                match Json_min.to_num v with
                | Some n -> Ok n
                | None -> Error (Printf.sprintf "kernel %S: field %S is not a number" name field))
            in
            let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
            let* median_ns = num ~default:0. "median_ns" in
            let* mad_ns = num ~default:0. "mad_ns" in
            let* samples = num ~default:1. "samples" in
            let* alloc_w = num ~default:0. "alloc_w" in
            Ok { name; median_ns; mad_ns; samples = int_of_float samples; alloc_w })
        in
        let rec go i acc = function
          | [] -> Ok { entries = List.rev acc }
          | it :: rest -> (
            match parse_entry i it with
            | Ok e -> go (i + 1) (e :: acc) rest
            | Error _ as e -> e)
        in
        go 0 [] items
      | _ -> Error "baseline without an \"entries\" array"))

let write path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> of_json contents

(* --- comparison --------------------------------------------------------- *)

type verdict = Regression | Improvement | Unchanged | Added | Removed

type delta = {
  d_name : string;
  d_verdict : verdict;
  d_base_ns : float;
  d_fresh_ns : float;
  d_threshold_ns : float;
  d_base_alloc_w : float;
  d_fresh_alloc_w : float;
  d_alloc_regression : bool;
}

(* Absolute floor for the allocation gate: kernels that allocate (almost)
   nothing would otherwise flake on a handful of incidental words. *)
let alloc_floor_w = 4096.

let alloc_tol = 0.5

let compare ?(rel_tol = 0.25) ?(mad_k = 5.0) ~baseline ~fresh () =
  let fresh_tbl = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace fresh_tbl e.name e) fresh.entries;
  let matched =
    List.map
      (fun be ->
        match Hashtbl.find_opt fresh_tbl be.name with
        | None ->
          {
            d_name = be.name;
            d_verdict = Removed;
            d_base_ns = be.median_ns;
            d_fresh_ns = 0.;
            d_threshold_ns = 0.;
            d_base_alloc_w = be.alloc_w;
            d_fresh_alloc_w = 0.;
            d_alloc_regression = false;
          }
        | Some fe ->
          Hashtbl.remove fresh_tbl be.name;
          let threshold =
            Float.max (rel_tol *. be.median_ns) (mad_k *. be.mad_ns)
          in
          let verdict =
            if fe.median_ns > be.median_ns +. threshold then Regression
            else if fe.median_ns < be.median_ns -. threshold then Improvement
            else Unchanged
          in
          let alloc_threshold = Float.max (alloc_tol *. be.alloc_w) alloc_floor_w in
          {
            d_name = be.name;
            d_verdict = verdict;
            d_base_ns = be.median_ns;
            d_fresh_ns = fe.median_ns;
            d_threshold_ns = threshold;
            d_base_alloc_w = be.alloc_w;
            d_fresh_alloc_w = fe.alloc_w;
            d_alloc_regression = fe.alloc_w > be.alloc_w +. alloc_threshold;
          })
      baseline.entries
  in
  let added =
    List.filter_map
      (fun fe ->
        if Hashtbl.mem fresh_tbl fe.name then
          Some
            {
              d_name = fe.name;
              d_verdict = Added;
              d_base_ns = 0.;
              d_fresh_ns = fe.median_ns;
              d_threshold_ns = 0.;
              d_base_alloc_w = 0.;
              d_fresh_alloc_w = fe.alloc_w;
              d_alloc_regression = false;
            }
        else None)
      fresh.entries
  in
  matched @ added

let regressions =
  List.filter (fun d -> d.d_verdict = Regression || d.d_alloc_regression)

let fmt_ns ns =
  let a = Float.abs ns in
  if a >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let verdict_str = function
  | Regression -> "REGRESSION"
  | Improvement -> "improved"
  | Unchanged -> "ok"
  | Added -> "added"
  | Removed -> "removed"

let print_table oc deltas =
  Printf.fprintf oc "%-40s %10s %10s %8s %8s %10s  %s\n" "kernel" "baseline" "fresh"
    "delta" "tol" "alloc-d" "verdict";
  List.iter
    (fun d ->
      let pct over base = if base > 0. then 100. *. over /. base else 0. in
      let delta_str =
        match d.d_verdict with
        | Added | Removed -> "-"
        | _ -> Printf.sprintf "%+.1f%%" (pct (d.d_fresh_ns -. d.d_base_ns) d.d_base_ns)
      in
      let tol_str =
        match d.d_verdict with
        | Added | Removed -> "-"
        | _ -> Printf.sprintf "%.1f%%" (pct d.d_threshold_ns d.d_base_ns)
      in
      let alloc_str =
        match d.d_verdict with
        | Added | Removed -> "-"
        | _ ->
          let dw = d.d_fresh_alloc_w -. d.d_base_alloc_w in
          if Float.abs dw < 0.5 then "0w"
          else if Float.abs dw >= 1e6 then Printf.sprintf "%+.1fMw" (dw /. 1e6)
          else if Float.abs dw >= 1e3 then Printf.sprintf "%+.1fkw" (dw /. 1e3)
          else Printf.sprintf "%+.0fw" dw
      in
      let verdict =
        match (d.d_verdict, d.d_alloc_regression) with
        | Regression, true -> "REGRESSION+ALLOC"
        | v, true -> verdict_str v ^ " ALLOC-REGRESSION"
        | v, false -> verdict_str v
      in
      Printf.fprintf oc "%-40s %10s %10s %8s %8s %10s  %s\n" d.d_name
        (if d.d_verdict = Added then "-" else fmt_ns d.d_base_ns)
        (if d.d_verdict = Removed then "-" else fmt_ns d.d_fresh_ns)
        delta_str tol_str alloc_str verdict)
    deltas;
  flush oc
