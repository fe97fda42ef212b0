(* maxtruss — command-line interface to the truss-maximization library.

     maxtruss datasets
     maxtruss gen syracuse56 -o syracuse.edges
     maxtruss stats -i graph.edges
     maxtruss decompose -i graph.edges
     maxtruss maximize -i graph.edges -k 8 -b 50 --algo pcfr
     maxtruss obsdiff before.json after.json *)

open Cmdliner

open Cli_common

(* datasets *)

let datasets_cmd =
  let run () =
    List.iter
      (fun (s : Datasets.Registry.spec) ->
        Printf.printf "%-12s (default k = %-2d) %s\n" s.name s.default_k s.description)
      Datasets.Registry.all;
    0
  in
  Cmd.v
    (Cmd.info "datasets" ~doc:"List the built-in synthetic datasets")
    Term.(const run $ const ())

(* gen *)

let gen_cmd =
  let ds_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Dataset name.")
  in
  let output =
    Arg.(value & opt string "graph.edges" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run name output =
    match Datasets.Registry.find name with
    | spec ->
      let g = spec.Datasets.Registry.build () in
      Graphcore.Gio.save output g;
      Printf.printf "wrote %s: %d nodes, %d edges\n" output (Graphcore.Graph.num_nodes g)
        (Graphcore.Graph.num_edges g);
      0
    | exception Not_found ->
      Printf.eprintf "unknown dataset %S\n" name;
      1
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a built-in dataset as an edge-list file")
    Term.(const run $ ds_name $ output)

(* stats *)

let stats_cmd =
  let run input dataset =
    match load_graph input dataset with
    | Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok g ->
      let s = Graphcore.Gstats.compute g in
      Format.printf "%a@." Graphcore.Gstats.pp s;
      let comps = Graphcore.Gstats.connected_components g in
      Printf.printf "connected components: %d (largest: %d nodes)\n" (Array.length comps)
        (List.length (Graphcore.Gstats.largest_component g));
      0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Basic structural statistics of a graph")
    Term.(const run $ input $ dataset_opt)

(* decompose *)

let decompose_cmd =
  let run input dataset domains =
    match load_graph input dataset with
    | Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok g ->
      apply_domains domains;
      let dec = Truss.Decompose.run g in
      Printf.printf "kmax = %d\n" (Truss.Decompose.kmax dec);
      Printf.printf "%-6s %10s %12s %12s\n" "k" "|E_k|" "|T_k|" "components";
      let cumulative = ref 0 in
      List.rev (Truss.Decompose.class_sizes dec)
      |> List.iter (fun (k, c) ->
             cumulative := !cumulative + c;
             let ncomp =
               List.length (Truss.Connectivity.components ~g ~dec ~lo:k ~hi:(k + 1))
             in
             Printf.printf "%-6d %10d %12d %12d\n" k c !cumulative ncomp);
      0
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Truss decomposition: class sizes, truss sizes and component counts per k")
    Term.(const run $ input $ dataset_opt $ domains_arg)

(* maximize *)

let algo_arg =
  let algos = [ ("pcfr", `Pcfr); ("pcf", `Pcf); ("pcr", `Pcr); ("cbtm", `Cbtm); ("rd", `Rd); ("gtm", `Gtm) ] in
  let doc = "Algorithm: pcfr (default), pcf, pcr, cbtm, rd or gtm." in
  Arg.(value & opt (enum algos) `Pcfr & info [ "algo" ] ~docv:"ALGO" ~doc)

let plan_out =
  let doc = "Write the insertion plan (one `u v` per line) to this file." in
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)

let print_levels levels =
  if levels <> [] then begin
    Printf.printf "%-6s %12s %8s %10s %8s\n" "h" "components" "plans" "inserted" "gain";
    List.iter
      (fun (l : Maxtruss.Pcfr.level_stat) ->
        Printf.printf "%-6d %12d %8d %10d %8d\n" l.Maxtruss.Pcfr.h l.Maxtruss.Pcfr.components
          l.Maxtruss.Pcfr.plans l.Maxtruss.Pcfr.inserted l.Maxtruss.Pcfr.gain)
      levels
  end

let maximize_cmd =
  let run input dataset k budget seed domains g_probes algo plan_out stats metrics trace
      openmetrics flight_record flight_dump =
    match load_graph input dataset with
    | Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok g ->
      apply_domains domains;
      let k =
        if k > 0 then k
        else
          match dataset with
          | Some name -> (Datasets.Registry.find name).Datasets.Registry.default_k
          | None -> 0
      in
      if k < 3 then begin
        Printf.eprintf "a truss number k >= 3 is required (--k)\n";
        1
      end
      else if g_probes < 1 then begin
        Printf.eprintf "--g-probes must be at least 1\n";
        1
      end
      else begin
        enable_obs_if_requested ~stats ~metrics ~trace ~openmetrics;
        setup_flight_recorder ~capacity:flight_record ~dump:flight_dump;
        (* Outcome.time_s is the algorithm's own time; the score's
           verification runs after it, so the printed total (which equals
           the root span) is timed around the whole call. *)
        let start = Unix.gettimeofday () in
        let outcome, levels =
          let of_result (r : Maxtruss.Pcfr.result) =
            (r.Maxtruss.Pcfr.outcome, r.Maxtruss.Pcfr.levels)
          in
          match algo with
          | `Pcfr -> of_result (Maxtruss.Pcfr.pcfr ~seed ~g_probes ~g ~k ~budget ())
          | `Pcf -> of_result (Maxtruss.Pcfr.pcf ~seed ~g_probes ~g ~k ~budget ())
          | `Pcr -> of_result (Maxtruss.Pcfr.pcr ~seed ~g_probes ~g ~k ~budget ())
          | `Cbtm -> (Maxtruss.Baselines.cbtm ~g ~k ~budget, [])
          | `Rd -> (Maxtruss.Baselines.rd ~rng:(Graphcore.Rng.create seed) ~g ~k ~budget, [])
          | `Gtm -> (Maxtruss.Baselines.gtm ~g ~k ~budget (), [])
        in
        let total_s = Unix.gettimeofday () -. start in
        let algorithm_s = outcome.Maxtruss.Outcome.time_s in
        Printf.printf
          "inserted %d edges; new %d-truss edges: %d; time: %.2fs (algorithm %.2fs + verification %.2fs)%s\n"
          (List.length outcome.Maxtruss.Outcome.inserted)
          k outcome.Maxtruss.Outcome.score total_s algorithm_s (total_s -. algorithm_s)
          (if outcome.Maxtruss.Outcome.timed_out then " (timed out)" else "");
        print_levels levels;
        let ok = ref true in
        let write path ~what f = if not (guarded_write ~what ~path f) then ok := false in
        (match plan_out with
        | Some path ->
          write path ~what:"plan" (fun () ->
              let oc = open_out path in
              List.iter
                (fun (u, v) -> Printf.fprintf oc "%d\t%d\n" u v)
                outcome.Maxtruss.Outcome.inserted;
              close_out oc)
        | None ->
          List.iter
            (fun (u, v) -> Printf.printf "  insert (%d, %d)\n" u v)
            (List.filteri (fun i _ -> i < 20) outcome.Maxtruss.Outcome.inserted);
          if List.length outcome.Maxtruss.Outcome.inserted > 20 then
            Printf.printf "  ... (%d more; use --plan FILE for the full list)\n"
              (List.length outcome.Maxtruss.Outcome.inserted - 20));
        if not (export_obs ~stats ~metrics ~trace ~openmetrics) then ok := false;
        if !ok then 0 else 1
      end
  in
  Cmd.v
    (Cmd.info "maximize" ~doc:"Run truss maximization and print/export the insertion plan")
    Term.(
      const run $ input $ dataset_opt $ k_arg $ budget_arg $ seed_arg $ domains_arg
      $ g_probes_arg $ algo_arg $ plan_out $ stats_flag $ metrics_out $ trace_out
      $ openmetrics_out $ flight_record_arg $ flight_dump_arg)

(* obsdiff: aligned span-tree diff between two metrics JSON exports *)

type span_row = {
  r_path : string;
  r_self_s : float;
  r_self_alloc_w : float;
  r_alloc_w : float;
  r_p50_s : float;
  r_p99_s : float;
  r_counters : (string * float) list;
}

(* Accepts a --metrics export (v1..v3; older rows default the alloc fields
   and the v3 quantiles to 0) or a bench --json report carrying the same
   object under "obs". *)
let load_metrics path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Json_min.parse contents with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      let j =
        match Json_min.member "obs" j with
        | Some o when Json_min.member "spans" o <> None -> o
        | _ -> j
      in
      match Json_min.(member "schema" j |> Option.map to_str) with
      | Some (Some "maxtruss-obs-metrics") -> (
        match Json_min.(member "spans" j |> Option.map to_arr) with
        | Some (Some spans) ->
          Ok
            (List.filter_map
               (fun sp ->
                 match Json_min.(member "path" sp |> Option.map to_str) with
                 | Some (Some p) ->
                   let counters =
                     match Json_min.(member "counters" sp |> Option.map to_obj) with
                     | Some (Some fields) ->
                       List.filter_map
                         (fun (k, v) ->
                           Option.map (fun n -> (k, n)) (Json_min.to_num v))
                         fields
                     | _ -> []
                   in
                   Some
                     {
                       r_path = p;
                       r_self_s = Json_min.(num_or 0. (member "self_s" sp));
                       r_self_alloc_w = Json_min.(num_or 0. (member "self_alloc_w" sp));
                       r_alloc_w = Json_min.(num_or 0. (member "alloc_w" sp));
                       r_p50_s = Json_min.(num_or 0. (member "p50_s" sp));
                       r_p99_s = Json_min.(num_or 0. (member "p99_s" sp));
                       r_counters = counters;
                     }
                 | _ -> None)
               spans)
        | _ -> Error (path ^ ": no \"spans\" array"))
      | _ -> Error (path ^ ": not a maxtruss-obs-metrics file")))

(* --fuzzy alignment: drop each segment's "(args)" suffix so runs whose span
   arguments differ (budgets, h levels, ...) still line up; rows collapsing
   to the same fuzzed path merge by summing times, allocations and
   counters. *)
let strip_args seg =
  let n = String.length seg in
  if n > 0 && seg.[n - 1] = ')' then
    match String.index_opt seg '(' with Some i -> String.sub seg 0 i | None -> seg
  else seg

let fuzz_path path = String.concat "/" (List.map strip_args (String.split_on_char '/' path))

let merge_counters a b =
  List.map
    (fun (k, v) -> match List.assoc_opt k b with Some w -> (k, v +. w) | None -> (k, v))
    a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

let fuzz_rows rows =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      let p = fuzz_path r.r_path in
      match Hashtbl.find_opt tbl p with
      | None ->
        Hashtbl.replace tbl p { r with r_path = p };
        order := p :: !order
      | Some acc ->
        Hashtbl.replace tbl p
          {
            r_path = p;
            r_self_s = acc.r_self_s +. r.r_self_s;
            r_self_alloc_w = acc.r_self_alloc_w +. r.r_self_alloc_w;
            r_alloc_w = acc.r_alloc_w +. r.r_alloc_w;
            (* quantiles don't sum; keep the worst tail across merged rows *)
            r_p50_s = Float.max acc.r_p50_s r.r_p50_s;
            r_p99_s = Float.max acc.r_p99_s r.r_p99_s;
            r_counters = merge_counters acc.r_counters r.r_counters;
          })
    rows;
  List.rev_map (fun p -> Hashtbl.find tbl p) !order

let fmt_dw w =
  let a = Float.abs w in
  if a < 0.5 then "0w"
  else if a >= 1e9 then Printf.sprintf "%+.1fGw" (w /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%+.1fMw" (w /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%+.1fkw" (w /. 1e3)
  else Printf.sprintf "%+.0fw" w

(* Signed duration delta for the quantile columns (quantiles are per-
   occurrence, so they live on a much finer scale than the summed times). *)
let fmt_dd s =
  let a = Float.abs s in
  if a < 0.5e-9 then "0"
  else if a >= 1. then Printf.sprintf "%+.3fs" s
  else if a >= 1e-3 then Printf.sprintf "%+.2fms" (s *. 1e3)
  else Printf.sprintf "%+.0fus" (s *. 1e6)

let obsdiff_cmd =
  let file_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A.json" ~doc:"Baseline metrics export.")
  in
  let file_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B.json" ~doc:"Fresh metrics export.")
  in
  let fuzzy_flag =
    let doc =
      "Strip per-segment \"(args)\" suffixes before aligning, merging rows that collapse \
       to the same path — aligns runs whose span arguments (budget, level, ...) differ."
    in
    Arg.(value & flag & info [ "fuzzy" ] ~doc)
  in
  let run fuzzy file_a file_b =
    match (load_metrics file_a, load_metrics file_b) with
    | Error e, _ | _, Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok rows_a, Ok rows_b ->
      let rows_a = if fuzzy then fuzz_rows rows_a else rows_a in
      let rows_b = if fuzzy then fuzz_rows rows_b else rows_b in
      let tbl_b = Hashtbl.create 64 in
      List.iter (fun r -> Hashtbl.replace tbl_b r.r_path r) rows_b;
      let in_a = Hashtbl.create 64 in
      List.iter (fun r -> Hashtbl.replace in_a r.r_path ()) rows_a;
      let aligned =
        List.map (fun a -> (Some a, Hashtbl.find_opt tbl_b a.r_path)) rows_a
        @ List.filter_map
            (fun b -> if Hashtbl.mem in_a b.r_path then None else Some (None, Some b))
            rows_b
      in
      Printf.printf "[obsdiff] %s -> %s\n" file_a file_b;
      Printf.printf "   %-44s %10s %10s %10s %9s %9s %10s  %s\n" "span" "self A"
        "self B" "d-self" "d-p50" "d-p99" "d-alloc" "d-counters";
      List.iter
        (fun (a, b) ->
          let path = match (a, b) with Some r, _ | None, Some r -> r.r_path | _ -> "" in
          let depth = ref 0 in
          String.iter (fun c -> if c = '/' then incr depth) path;
          let leaf =
            match String.rindex_opt path '/' with
            | Some i -> String.sub path (i + 1) (String.length path - i - 1)
            | None -> path
          in
          let mark = match (a, b) with None, _ -> '+' | _, None -> '-' | _ -> ' ' in
          let self r = match r with Some r -> r.r_self_s | None -> 0. in
          let alloc r =
            match r with
            | Some r -> if r.r_self_alloc_w <> 0. then r.r_self_alloc_w else r.r_alloc_w
            | None -> 0.
          in
          let ctr_delta =
            let keys =
              List.map fst (match a with Some r -> r.r_counters | None -> [])
              @ List.filter_map
                  (fun (k, _) ->
                    match a with
                    | Some r when List.mem_assoc k r.r_counters -> None
                    | _ -> Some k)
                  (match b with Some r -> r.r_counters | None -> [])
            in
            List.filter_map
              (fun k ->
                let get r = match r with Some r -> (match List.assoc_opt k r.r_counters with Some v -> v | None -> 0.) | None -> 0. in
                let d = get b -. get a in
                if Float.abs d < 0.5 then None else Some (Printf.sprintf "%s %+.0f" k d))
              keys
          in
          let p50 r = match r with Some r -> r.r_p50_s | None -> 0. in
          let p99 r = match r with Some r -> r.r_p99_s | None -> 0. in
          Printf.printf " %c %s%-*s %9.4fs %9.4fs %+9.4fs %9s %9s %10s  %s\n" mark
            (String.make (2 * !depth) ' ')
            (max 1 (44 - (2 * !depth)))
            leaf (self a) (self b)
            (self b -. self a)
            (fmt_dd (p50 b -. p50 a))
            (fmt_dd (p99 b -. p99 a))
            (fmt_dw (alloc b -. alloc a))
            (if ctr_delta = [] then "" else "{" ^ String.concat ", " ctr_delta ^ "}"))
        aligned;
      0
  in
  Cmd.v
    (Cmd.info "obsdiff"
       ~doc:
         "Aligned span-tree diff of two observability metrics exports (delta \
          self-time, delta allocation, delta counters)")
    Term.(const run $ fuzzy_flag $ file_a $ file_b)

(* lint-openmetrics: shape-check a saved exposition — the CI hook for
   validating a live scrape taken from a running maxtruss-serve. *)
let lint_openmetrics_cmd =
  let file =
    let doc = "OpenMetrics/Prometheus text exposition to check." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let no_bucket_flag =
    let doc = "Do not require a histogram _bucket series (for counter-only expositions)." in
    Arg.(value & flag & info [ "no-require-bucket" ] ~doc)
  in
  let run no_bucket file =
    let text = In_channel.with_open_bin file In_channel.input_all in
    match Obs.lint_openmetrics ~require_bucket:(not no_bucket) text with
    | Ok lines ->
      Printf.printf "[lint-openmetrics] %s ok: %d lines\n" file lines;
      0
    | Error e ->
      Printf.eprintf "[lint-openmetrics] %s: %s\n" file e;
      1
  in
  Cmd.v
    (Cmd.info "lint-openmetrics"
       ~doc:
         "Shape-check an OpenMetrics text exposition (one TYPE line per family, sample \
          lines well-formed, # EOF terminator, at least one histogram bucket)")
    Term.(const run $ no_bucket_flag $ file)

let () =
  let info =
    Cmd.info "maxtruss" ~version:"1.0.0"
      ~doc:"Adaptive truss maximization via minimum cuts (ICDE 2024 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            datasets_cmd;
            gen_cmd;
            stats_cmd;
            decompose_cmd;
            maximize_cmd;
            obsdiff_cmd;
            lint_openmetrics_cmd;
          ]))
