(* Shared plumbing: clocks, sample buffers, quantiles, the result line, and
   the fixed workload parameters every phase agrees on. *)

open Graphcore

let dataset = "gowalla"

(* k = 8 is the dataset's registry default; b = 30 is the ROADMAP's
   headline budget. *)
let k = (Datasets.Registry.find dataset).Datasets.Registry.default_k

let budget = 30

let build_graph () = (Datasets.Registry.find dataset).Datasets.Registry.build ()

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Growable float buffer: latency samples of one phase. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile_arr a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile s q = quantile_arr (Samples.to_array s) q

let median_list l = quantile_arr (Array.of_list l) 0.5

let mean_list l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

(* [n] timed repetitions of [f]; returns the median seconds. *)
let median_time n f = median_list (List.init n (fun _ -> snd (time f)))

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

(* Operation tally, kept per check class: a read op's name ("stats",
   "onion", ...), "mutate", "maximize" (plans and their checks), "setup",
   "replay".  Every request, maximize call and verification counts as
   attempted in its class; error responses and oracle mismatches as
   failed, at most once per attempt. *)
type tally = { mutable attempted : int; mutable failed : int }

let classes : (string, tally) Hashtbl.t = Hashtbl.create 16

let notes = ref []

let tally_of cls =
  match Hashtbl.find_opt classes cls with
  | Some t -> t
  | None ->
    let t = { attempted = 0; failed = 0 } in
    Hashtbl.replace classes cls t;
    t

let attempt cls =
  let t = tally_of cls in
  t.attempted <- t.attempted + 1

let fail cls fmt =
  Printf.ksprintf
    (fun msg ->
      let t = tally_of cls in
      t.failed <- t.failed + 1;
      if List.length !notes < 20 then notes := msg :: !notes)
    fmt

let check cls cond fmt =
  attempt cls;
  Printf.ksprintf (fun msg -> if not cond then fail cls "%s" msg) fmt

let totals () = Hashtbl.fold (fun _ t (a, f) -> (a + t.attempted, f + t.failed)) classes (0, 0)

(* 1 − the failure share of the worst class, so a class that fails
   throughout reads 0 however many attempts the other classes make. *)
let success_rate () =
  Hashtbl.fold
    (fun _ t acc -> Float.min acc (1. -. (float_of_int t.failed /. float_of_int (max 1 t.attempted))))
    classes 1.
  |> Float.max 0.

(* Output directory for artifacts (span trees, daemon logs, fingerprints),
   relative to the checkout root the benchmark runs from. *)
let out_dir = Filename.concat "perfbench" "out"

let out_path name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

(* The result line: every metric with its unit, then the tally. *)
let print_result metrics =
  let body =
    List.map
      (fun (name, value, unit) ->
        let value =
          if Float.is_finite value then value
          else begin
            check "metrics" false "metric %s is not finite" name;
            0.
          end
        in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  List.iter (fun m -> Printf.eprintf "[perfbench] failure: %s\n" m) (List.rev !notes);
  let attempted, failed = totals () in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 attempted) failed (String.concat ", " body)

(* Independent recount of a plan's gain: a fresh CSR decomposition of
   G ∪ A compared against one of G.  [dec_g] is the decomposition of [g]. *)
let recount_gain ~g ~dec_g ~inserted =
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) inserted;
  let dec' = Truss.Decompose.run g' in
  List.fold_left
    (fun acc key ->
      match Truss.Decompose.trussness_opt dec_g key with
      | Some t when t >= k -> acc
      | _ -> acc + 1)
    0 (Truss.Decompose.truss_edges dec' k)

(* Everything a maximize answer must satisfy: |A| <= b, A ∩ E = ∅, no
   self-loops or duplicates, and the reported score equals the recount. *)
let verify_plan ~what ~g ~dec_g ~inserted ~score =
  let keys = List.map (fun (u, v) -> Edge_key.make u v) inserted in
  check "maximize" (List.length inserted <= budget) "%s: %d edges inserted, budget %d" what
    (List.length inserted) budget;
  check "maximize"
    (List.for_all (fun (u, v) -> u <> v && not (Graph.mem_edge g u v)) inserted
    && List.length (List.sort_uniq Edge_key.compare keys) = List.length keys)
    "%s: plan repeats an edge or inserts an existing one" what;
  let recount = recount_gain ~g ~dec_g ~inserted in
  check "maximize" (recount = score) "%s: reported gain %d, recount %d" what score recount;
  recount

(* Order-independent fingerprint of a plan: MD5 of the sorted pairs. *)
let fingerprint inserted =
  let keys = List.sort_uniq Edge_key.compare (List.map (fun (u, v) -> Edge_key.make u v) inserted) in
  let b = Buffer.create 512 in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Printf.bprintf b "%d %d\n" u v)
    keys;
  Digest.to_hex (Digest.string (Buffer.contents b))
