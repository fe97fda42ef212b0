(* Obs: span nesting / exclusive-time invariants, counter determinism
   across fixed-seed runs, the disabled-mode zero-footprint contract, and
   that both JSON exporters emit well-formed JSON (checked with the minimal
   recursive-descent parser below — no JSON dependency in the repo). *)

open Maxtruss

(* --- minimal strict JSON well-formedness checker --- *)

exception Bad_json of string

let check_json s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !i)) in
  let peek () = if !i < n then s.[!i] else '\000' in
  let skip_ws () =
    while
      !i < n && match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr i
    done
  in
  let expect c = if peek () = c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let literal w =
    String.iter (fun c -> if peek () = c then incr i else fail ("in literal " ^ w)) w
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !i >= n then fail "unterminated string"
      else begin
        (match s.[!i] with
        | '"' -> fin := true
        | '\\' -> incr i (* skip escaped char *)
        | c when Char.code c < 0x20 -> fail "raw control char in string"
        | _ -> ());
        incr i
      end
    done
  in
  let number () =
    if peek () = '-' then incr i;
    let digits = ref 0 in
    while match peek () with '0' .. '9' -> true | _ -> false do
      incr i;
      incr digits
    done;
    if !digits = 0 then fail "number";
    if peek () = '.' then begin
      incr i;
      while match peek () with '0' .. '9' -> true | _ -> false do
        incr i
      done
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr i;
      if peek () = '+' || peek () = '-' then incr i;
      while match peek () with '0' .. '9' -> true | _ -> false do
        incr i
      done
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr i;
      skip_ws ();
      if peek () = '}' then incr i
      else begin
        let fin = ref false in
        while not !fin do
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | ',' -> incr i
          | '}' ->
            incr i;
            fin := true
          | _ -> fail "object"
        done
      end
    | '[' ->
      incr i;
      skip_ws ();
      if peek () = ']' then incr i
      else begin
        let fin = ref false in
        while not !fin do
          value ();
          skip_ws ();
          match peek () with
          | ',' -> incr i
          | ']' ->
            incr i;
            fin := true
          | _ -> fail "array"
        done
      end
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "value"
  in
  value ();
  skip_ws ();
  if !i <> n then fail "trailing garbage"

(* --- helpers --- *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let find_stat stats path =
  match List.find_opt (fun (s : Obs.span_stat) -> s.Obs.path = path) stats with
  | Some s -> s
  | None -> Alcotest.failf "span %S not in stats" path

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

(* --- tests --- *)

let test_span_nesting () =
  with_obs @@ fun () ->
  Obs.Span.with_ "a" (fun () ->
      spin 0.004;
      Obs.Span.with_ "b" (fun () -> spin 0.003);
      Obs.Span.with_ "b" (fun () -> spin 0.002);
      Obs.Span.with_ ~args:[ ("x", "1") ] "c" (fun () -> spin 0.001));
  let stats = Obs.span_stats () in
  Alcotest.(check (list string))
    "paths in preorder"
    [ "a"; "a/b"; "a/c(x=1)" ]
    (List.map (fun (s : Obs.span_stat) -> s.Obs.path) stats);
  let a = find_stat stats "a" in
  let b = find_stat stats "a/b" in
  let c = find_stat stats "a/c(x=1)" in
  Alcotest.(check int) "a once" 1 a.Obs.count;
  Alcotest.(check int) "b aggregated" 2 b.Obs.count;
  Alcotest.(check int) "c once" 1 c.Obs.count;
  Alcotest.(check bool) "children nest inside parent" true
    (a.Obs.total_s +. 1e-9 >= b.Obs.total_s +. c.Obs.total_s);
  (* exclusive = inclusive minus the children's inclusive time *)
  Alcotest.(check bool) "exclusive-time identity" true
    (Float.abs (a.Obs.self_s -. (a.Obs.total_s -. b.Obs.total_s -. c.Obs.total_s)) < 1e-9);
  List.iter
    (fun (s : Obs.span_stat) ->
      Alcotest.(check bool) (s.Obs.path ^ " self >= 0") true (s.Obs.self_s >= -1e-9);
      Alcotest.(check bool)
        (s.Obs.path ^ " total >= self")
        true
        (s.Obs.total_s +. 1e-9 >= s.Obs.self_s))
    stats

let test_counter_attribution () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.ctr" in
  Obs.Span.with_ "a" (fun () ->
      Obs.Counter.add c 2;
      Obs.Span.with_ "b" (fun () -> Obs.Counter.incr c));
  Alcotest.(check int) "global total" 3 (Obs.Counter.value c);
  Alcotest.(check (list (pair string int))) "registry" [ ("test.ctr", 3) ] (Obs.counters ());
  let stats = Obs.span_stats () in
  Alcotest.(check (list (pair string int)))
    "own delta on a" [ ("test.ctr", 2) ] (find_stat stats "a").Obs.counters;
  Alcotest.(check (list (pair string int)))
    "own delta on a/b" [ ("test.ctr", 1) ] (find_stat stats "a/b").Obs.counters

let test_exit_closes_forgotten_children () =
  with_obs @@ fun () ->
  let outer = Obs.Span.enter "outer" in
  let _inner = Obs.Span.enter "inner" in
  Obs.Span.exit outer;
  (* both closed: a new span nests under the root, not under "inner" *)
  Obs.Span.with_ "after" (fun () -> ());
  Alcotest.(check (list string))
    "forgotten child closed with parent"
    [ "outer"; "outer/inner"; "after" ]
    (List.map (fun (s : Obs.span_stat) -> s.Obs.path) (Obs.span_stats ()))

let pcfr_counters () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let g = Helpers.fig1 () in
      ignore (Pcfr.pcfr ~g ~k:4 ~budget:2 ~seed:5 ());
      Obs.counters ())

let test_counters_deterministic () =
  (* Same graph, same seed: the whole pipeline is deterministic, so every
     registered counter (probes, BFS phases, augmenting paths, plans, ...)
     must agree across runs. *)
  let a = pcfr_counters () in
  let b = pcfr_counters () in
  Alcotest.(check bool) "counters non-empty" true (a <> []);
  Alcotest.(check (list (pair string int))) "identical across runs" a b

let test_disabled_no_footprint () =
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.Counter.make "test.disabled_ctr" in
  let g = Obs.Gauge.make "test.disabled_gauge" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Gauge.set g 3.5;
  Obs.Span.with_ "x" (fun () -> ());
  let sp = Obs.Span.enter ~args:[ ("k", "9") ] "y" in
  Obs.Span.exit sp;
  Alcotest.(check bool) "enter returns the no-op span" true (sp == Obs.Span.none);
  (* an instrumented end-to-end run must not register anything either *)
  ignore (Pcfr.pcfr ~g:(Helpers.fig1 ()) ~k:4 ~budget:2 ());
  let h = Obs.Histogram.make "test.disabled_hist" in
  Obs.Histogram.observe h 123;
  let flight_before = Obs.Flight_recorder.recorded () in
  Obs.Span.with_ "z" (fun () -> ());
  Alcotest.(check (list (pair string int))) "no counters registered" [] (Obs.counters ());
  Alcotest.(check int) "gauge registry empty" 0 (List.length (Obs.gauges ()));
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.span_stats ()));
  Alcotest.(check int) "counter value stays 0" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram registry empty" 0 (List.length (Obs.histograms ()));
  Alcotest.(check int) "histogram records nothing" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "no span histograms" 0 (List.length (Obs.span_histograms ()));
  Alcotest.(check int)
    "flight ring untouched" flight_before
    (Obs.Flight_recorder.recorded ());
  (* the disabled fast path must not allocate: run each primitive in a
     tight loop and require zero minor-heap growth (the loop itself is
     allocation-free; any slack would mean a hidden box on the hot path) *)
  let sp0 = Obs.Span.enter "warm" in
  Obs.Span.exit sp0;
  Alcotest.(check bool) "no event sink configured" false (Obs.Events.active ());
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Counter.incr c;
    Obs.Gauge.set g 1.0;
    Obs.Histogram.observe h 7;
    Obs.Events.emit_request ~op:"hot" ~id:None ~gen:0 ~epoch_age:0 ~queue_ns:1
      ~exec_ns:2 ~batch_size:1 ~batch_pos:0 ~ok:true;
    let sp = Obs.Span.enter "hot" in
    Obs.Span.exit sp
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled loop allocation-free (got %.0f words)" allocated)
    true
    (allocated <= 16.)

let test_exported_json_parses () =
  with_obs (fun () ->
      let g = Helpers.fig1 () in
      ignore (Pcfr.pcfr ~g ~k:4 ~budget:2 ());
      check_json (Obs.metrics_json ());
      check_json (Obs.chrome_trace_json ()));
  (* empty registry exports must be valid too *)
  check_json (Obs.metrics_json ());
  check_json (Obs.chrome_trace_json ())

let test_metrics_contract () =
  (* The fields downstream tooling greps for (METRICS_SCHEMA.md). *)
  with_obs @@ fun () ->
  let g = Helpers.fig1 () in
  ignore (Pcfr.pcfr ~g ~k:4 ~budget:2 ());
  let m = Obs.metrics_json () in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains m needle))
    [
      "\"schema\": \"maxtruss-obs-metrics\"";
      "\"version\": 3";
      "\"alloc_w\"";
      "\"self_alloc_w\"";
      "gc.peak_major_heap_words";
      "pcfr.level(h=1)";
      "dinic.augmenting_paths";
      "dinic.bfs_phases";
      "pcfr.plans_generated";
      "pcfr.plans_kept";
      "csr.of_graph";
    ]

(* Every PCFR phase has its own span, so none shows up as pcfr.level's or
   pcfr.run's unattributed self time: one ctx build and one component pass
   per level, one local scoring context and one block DAG per component
   (fig1 has two 3-class components), one oracle per run, the oracle
   merging the plan into the level-1 snapshot.  The input is copied only
   by a later level that needs the insertions committed before it. *)
let test_pcfr_phase_spans () =
  let check_counts stats =
    List.iter (fun (path, count) ->
        Alcotest.(check int) path count (find_stat stats path).Obs.count)
  in
  (* [graph.copy] spans, as (path, count) *)
  let copies stats =
    List.filter_map
      (fun (s : Obs.span_stat) ->
        let parts = String.split_on_char '/' s.Obs.path in
        if List.nth parts (List.length parts - 1) = "graph.copy" then Some (s.Obs.path, s.Obs.count)
        else None)
      stats
  in
  (with_obs @@ fun () ->
   (* fig1 at b = 2 ends at level 1, which reads its input: no copy. *)
   ignore (Pcfr.pcfr ~g:(Helpers.fig1 ()) ~k:4 ~budget:2 ());
   let stats = Obs.span_stats () in
   check_counts stats
     [
       ("pcfr.run(k=4,budget=2)/pcfr.level(h=1)/connectivity.components", 1);
       ("pcfr.run(k=4,budget=2)/pcfr.level(h=1)/score.ctx", 1);
       ("pcfr.run(k=4,budget=2)/pcfr.level(h=1)/pcfr.component/score.local_ctx", 2);
       ("pcfr.run(k=4,budget=2)/pcfr.level(h=1)/pcfr.component/block_dag.build", 2);
       ("pcfr.run(k=4,budget=2)/score.evaluate_oracle", 1);
       ("pcfr.run(k=4,budget=2)/score.evaluate_oracle/csr.add_edges", 1);
     ];
   Alcotest.(check (list (pair string int))) "one-level run copies nothing" [] (copies stats));
  with_obs @@ fun () ->
  (* Level 2 needs level 1's insertions: it copies the input once. *)
  let r = Pcfr.pcfr ~seed:1 ~g:(Helpers.two_level_graph ()) ~k:7 ~budget:8 () in
  let stats = Obs.span_stats () in
  Alcotest.(check (list (pair string int)))
    "two-level run copies once, at level 2"
    [ ("pcfr.run(k=7,budget=8)/pcfr.level(h=2)/graph.copy", 1) ]
    (copies stats);
  Alcotest.(check (list int)) "levels committed" [ 1; 2 ]
    (List.map (fun (l : Pcfr.level_stat) -> l.Pcfr.h) r.Pcfr.levels);
  check_counts stats
    (List.map
       (fun (l : Pcfr.level_stat) ->
         ( Printf.sprintf "pcfr.run(k=7,budget=8)/pcfr.level(h=%d)/pcfr.component/block_dag.build" l.Pcfr.h,
           l.Pcfr.components ))
       r.Pcfr.levels)

(* A baseline snapshots and decomposes its input once, and the same pair
   serves its scoring context and the oracle, which peels only the input
   with the plan merged in. *)
let test_baselines_peel_once () =
  let g = (Datasets.Registry.find "gowalla-sample").Datasets.Registry.build () in
  let count stats path =
    match List.find_opt (fun (s : Obs.span_stat) -> s.Obs.path = path) stats with
    | Some s -> s.Obs.count
    | None -> 0
  in
  List.iter
    (fun (name, run) ->
      with_obs @@ fun () ->
      ignore (run ());
      let stats = Obs.span_stats () in
      List.iter
        (fun (path, n) -> Alcotest.(check int) (name ^ ": " ^ path) n (count stats path))
        [
          ("csr.of_graph", 1);
          ("truss.decompose", 1);
          ("score.evaluate_oracle/csr.of_graph", 0);
          ("score.evaluate_oracle/truss.decompose", 1);
        ])
    [
      ("cbtm", fun () -> Baselines.cbtm ~g ~k:6 ~budget:30);
      ("gtm", fun () -> Baselines.gtm ~g ~k:6 ~budget:30 ());
      ("rd", fun () -> Baselines.rd ~rng:(Graphcore.Rng.create 5) ~g ~k:6 ~budget:30);
    ]

let boom_line = __LINE__ + 3

let[@inline never] boom () =
  raise (Failure "obs-backtrace-test")

let test_with_preserves_backtrace () =
  (* Span.with_ must re-raise with the backtrace of the original raise
     site, not restart it inside the instrumentation layer. *)
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  with_obs @@ fun () ->
  match Obs.Span.with_ "bt" (fun () -> boom ()) with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ ->
    let bt = Printexc.get_backtrace () in
    Alcotest.(check bool)
      ("raise site (test_obs.ml line " ^ string_of_int boom_line ^ ") survives")
      true
      (contains bt "test_obs.ml" && contains bt ("line " ^ string_of_int boom_line));
    (* the span still closed despite the exception *)
    Alcotest.(check int) "span closed" 1 (find_stat (Obs.span_stats ()) "bt").Obs.count

let test_args_json_escaping () =
  (* ?args values with quotes, backslashes and control characters must
     come out escaped in both exporters (the in-test parser rejects raw
     control bytes inside strings). *)
  with_obs @@ fun () ->
  let args =
    [ ("quo\"te", "a\"b"); ("back\\slash", "c\\d"); ("ctl", "e\n\t\x01f") ]
  in
  Obs.Span.with_ ~args "weird" (fun () -> ());
  let m = Obs.metrics_json () in
  let t = Obs.chrome_trace_json () in
  check_json m;
  check_json t;
  List.iter
    (fun (out, name) ->
      Alcotest.(check bool) (name ^ " escapes \\u0001") true (contains out "\\u0001");
      Alcotest.(check bool) (name ^ " escapes quote") true (contains out "quo\\\"te");
      Alcotest.(check bool)
        (name ^ " escapes backslash") true
        (contains out "back\\\\slash"))
    [ (m, "metrics"); (t, "trace") ]

let test_alloc_attribution () =
  with_obs @@ fun () ->
  Obs.Span.with_ "outer" (fun () ->
      ignore (Sys.opaque_identity (List.init 1000 (fun i -> i)));
      Obs.Span.with_ "inner" (fun () ->
          ignore (Sys.opaque_identity (Array.make 50_000 0.))));
  let stats = Obs.span_stats () in
  let o = find_stat stats "outer" in
  let i = find_stat stats "outer/inner" in
  (* the 50k-float array alone is > 50_000 words, wherever it lands *)
  Alcotest.(check bool) "inner alloc covers the array" true (i.Obs.alloc_w >= 50_000.);
  (* outer additionally allocated the 1000-cons list (3 words per cons) *)
  Alcotest.(check bool)
    "outer alloc covers inner + own list" true
    (o.Obs.alloc_w >= i.Obs.alloc_w +. 2_000.);
  Alcotest.(check bool)
    "exclusive-alloc identity" true
    (Float.abs (o.Obs.self_alloc_w -. (o.Obs.alloc_w -. i.Obs.alloc_w)) < 1.);
  Alcotest.(check bool) "gc counts non-negative" true
    (List.for_all
       (fun (s : Obs.span_stat) -> s.Obs.minor_gcs >= 0 && s.Obs.major_gcs >= 0)
       stats);
  (* the peak-heap gauge is seeded as soon as collection is enabled *)
  (match List.assoc_opt "gc.peak_major_heap_words" (Obs.gauges ()) with
  | Some v -> Alcotest.(check bool) "peak heap positive" true (v > 0.)
  | None -> Alcotest.fail "gc.peak_major_heap_words gauge missing");
  let m = Obs.metrics_json () in
  check_json m;
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " in metrics") true (contains m needle))
    [ "\"version\": 3"; "\"alloc_w\""; "\"self_alloc_w\""; "\"promoted_w\"";
      "\"minor_gcs\""; "\"major_gcs\""; "gc.peak_major_heap_words" ]

let test_v2_fields_absent_when_disabled () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.Span.with_ "x" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
  let m = Obs.metrics_json () in
  check_json m;
  Alcotest.(check bool) "still versioned schema" true (contains m "\"version\": 3");
  Alcotest.(check bool) "no alloc fields" false (contains m "alloc_w");
  Alcotest.(check bool) "no peak gauge" false (contains m "gc.peak_major_heap_words")

let test_reset_invalidates_handles () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.reset_ctr" in
  Obs.Counter.add c 7;
  Alcotest.(check int) "counted" 7 (Obs.Counter.value c);
  Obs.reset ();
  Obs.set_enabled true;
  Alcotest.(check int) "reset zeroes the handle" 0 (Obs.Counter.value c);
  Alcotest.(check (list (pair string int))) "registry cleared" [] (Obs.counters ());
  Obs.Counter.incr c;
  Alcotest.(check (list (pair string int)))
    "handle re-registers after reset" [ ("test.reset_ctr", 1) ] (Obs.counters ())

(* --- histograms --- *)

let test_hdr_bound () =
  (* 2^20 sits in the first slot of its range, where slots are 2^14 = v/64
     wide; the outlier keeps p50 from being clamped to the maximum, so it
     reads the slot's top, 1,064,959: 1.56 % high. *)
  let h = Hdr.create () in
  let v = 1_048_576 in
  Hdr.observe h v;
  Hdr.observe h 1_000_000_000;
  let p50 = Hdr.quantile h 0.5 in
  Alcotest.(check bool) (Printf.sprintf "p50 %d >= %d" p50 v) true (p50 >= v);
  Alcotest.(check bool) (Printf.sprintf "p50 %d within v/64 of %d" p50 v) true (p50 - v < v / 64)

let test_hdr_histogram () =
  let h = Hdr.create () in
  Alcotest.(check int) "empty count" 0 (Hdr.count h);
  Alcotest.(check int) "empty quantile" 0 (Hdr.quantile h 0.5);
  (* values below 128 land in unit-width slots: everything is exact *)
  List.iter (Hdr.observe h) [ 3; 3; 5; 100; 127 ];
  Alcotest.(check int) "count" 5 (Hdr.count h);
  Alcotest.(check int) "sum" 238 (Hdr.sum h);
  Alcotest.(check int) "min" 3 (Hdr.min_value h);
  Alcotest.(check int) "max" 127 (Hdr.max_value_seen h);
  Alcotest.(check int) "p50 exact in unit range" 5 (Hdr.quantile h 0.5);
  Alcotest.(check int) "p0 -> min slot" 3 (Hdr.quantile h 0.);
  Alcotest.(check int) "p100 -> max" 127 (Hdr.quantile h 1.);
  (* log-linear resolution: a quantile is never below the recorded value
     and less than 1% above it, at any magnitude *)
  List.iter
    (fun v ->
      let h = Hdr.create () in
      Hdr.observe h v;
      let q = Hdr.quantile h 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "q >= v for %d" v)
        true (q >= v);
      Alcotest.(check bool)
        (Printf.sprintf "q within 1%% for %d (got %d)" v q)
        true
        (float_of_int q <= 1.01 *. float_of_int v))
    [ 1; 127; 128; 129; 1000; 123_456; 987_654_321; 4_000_000_000_000 ];
  (* clamping keeps observe total *)
  let c = Hdr.create () in
  Hdr.observe c (-5);
  Hdr.observe c max_int;
  Alcotest.(check int) "negative clamps to 0" 0 (Hdr.min_value c);
  Alcotest.(check int) "huge clamps to max_value" Hdr.max_value (Hdr.max_value_seen c);
  (* merge adds counts/sums and the bucket lists stay cumulative *)
  let a = Hdr.create () and b = Hdr.create () in
  List.iter (Hdr.observe a) [ 10; 20; 30 ];
  List.iter (Hdr.observe b) [ 20; 40_000 ];
  Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Hdr.count a);
  Alcotest.(check int) "merged sum" 40_080 (Hdr.sum a);
  Alcotest.(check int) "merged min" 10 (Hdr.min_value a);
  let buckets = Hdr.buckets a in
  Alcotest.(check bool) "buckets non-empty" true (buckets <> []);
  let last_cum = List.fold_left (fun _ (_, c) -> c) 0 buckets in
  Alcotest.(check int) "final cumulative = count" (Hdr.count a) last_cum;
  let rec monotone = function
    | (ub1, c1) :: ((ub2, c2) :: _ as rest) ->
      ub1 < ub2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets ascending + cumulative" true (monotone buckets)

let test_registered_histogram () =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.latency_ns" in
  List.iter (Obs.Histogram.observe h) [ 100; 200; 300; 400; 50_000 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 51_000 (Obs.Histogram.sum h);
  Alcotest.(check bool) "median in range" true
    (let q = Obs.Histogram.quantile h 0.5 in
     q >= 300 && q <= 303);
  (match Obs.histograms () with
  | [ (name, snap) ] ->
    Alcotest.(check string) "registered under its name" "test.latency_ns" name;
    Alcotest.(check int) "snapshot count" 5 (Hdr.count snap)
  | l -> Alcotest.failf "expected 1 registered histogram, got %d" (List.length l));
  (* observes from a worker domain land in that domain's shard and merge *)
  let d = Domain.spawn (fun () -> Obs.Histogram.observe h 999) in
  Domain.join d;
  Alcotest.(check int) "cross-domain observe merged" 6 (Obs.Histogram.count h);
  Obs.reset ();
  Obs.set_enabled true;
  Alcotest.(check int) "reset zeroes the handle" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "registry cleared" 0 (List.length (Obs.histograms ()))

let test_span_quantiles () =
  with_obs @@ fun () ->
  for _ = 1 to 20 do
    Obs.Span.with_ "q" (fun () -> spin 0.001)
  done;
  Obs.Span.with_ "q" (fun () -> spin 0.01);
  let s = find_stat (Obs.span_stats ()) "q" in
  Alcotest.(check int) "count" 21 s.Obs.count;
  Alcotest.(check bool) "p50 >= 1ms" true (s.Obs.p50_s >= 0.001);
  Alcotest.(check bool) "p50 <= p90 <= p99" true
    (s.Obs.p50_s <= s.Obs.p90_s && s.Obs.p90_s <= s.Obs.p99_s);
  (* the single 10ms outlier IS the 99th percentile of 21 samples *)
  Alcotest.(check bool) "p99 sees the outlier" true (s.Obs.p99_s >= 0.01);
  Alcotest.(check bool) "p50 robust to the outlier" true (s.Obs.p50_s < 0.01);
  (* the path histogram backing the row carries the same count *)
  (match List.assoc_opt "q" (Obs.span_histograms ()) with
  | Some h -> Alcotest.(check int) "path histogram count" 21 (Hdr.count h)
  | None -> Alcotest.fail "span histogram for path \"q\" missing");
  (* v3 metrics carry the quantiles and the histograms section *)
  let m = Obs.metrics_json () in
  check_json m;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in metrics") true (contains m needle))
    [ "\"p50_s\""; "\"p90_s\""; "\"p99_s\""; "\"histograms\""; "\"spans\"" ]

(* Span histograms are built from the tree at export: a path's histogram
   holds its closed occurrences only, and a path with none closed has no
   histogram, yet its row still gets quantiles from the live durations. *)
let test_span_histograms_closed_only () =
  with_obs @@ fun () ->
  let count path =
    Option.map Hdr.count (List.assoc_opt path (Obs.span_histograms ()))
  in
  Obs.Span.with_ "p" (fun () -> ());
  let open_p = Obs.Span.enter "p" in
  let _inner = Obs.Span.enter "inner" in
  spin 0.001;
  Alcotest.(check int)
    "row counts both occurrences" 2 (find_stat (Obs.span_stats ()) "p").Obs.count;
  Alcotest.(check (option int)) "histogram counts the closed one" (Some 1) (count "p");
  Alcotest.(check (option int)) "open-only path has no histogram" None (count "p/inner");
  Alcotest.(check bool) "open-only row measured up to now" true
    ((find_stat (Obs.span_stats ()) "p/inner").Obs.p50_s >= 0.001);
  Obs.Span.exit open_p;
  Alcotest.(check (option int)) "closing adds the occurrence" (Some 2) (count "p");
  Alcotest.(check (option int)) "forgotten child closed with it" (Some 1) (count "p/inner")

(* Spans recorded inside a Domain_scope must land in the same path
   histograms as owner-side spans, under the merge-time prefix. *)
let test_scope_spans_feed_histograms () =
  with_obs @@ fun () ->
  Obs.Span.with_ "host" (fun () ->
      let sc = Obs.Domain_scope.create () in
      let d =
        Domain.spawn (fun () ->
            Obs.Domain_scope.run sc (fun () ->
                Obs.Span.with_ "task" (fun () -> spin 0.001)))
      in
      Domain.join d;
      Obs.Domain_scope.merge sc);
  match List.assoc_opt "host/task" (Obs.span_histograms ()) with
  | Some h ->
    Alcotest.(check int) "merged span fed its path histogram" 1 (Hdr.count h);
    Alcotest.(check bool) "duration recorded (>= 1ms)" true
      (Hdr.quantile h 1.0 >= 1_000_000)
  | None -> Alcotest.fail "span histogram for merged path \"host/task\" missing"

(* --- OpenMetrics exposition --- *)

(* Minimal exposition-format line parser: returns (series, labels, value)
   samples and the comment lines, failing on anything malformed. *)
let parse_openmetrics text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let samples = ref [] in
  let comments = ref [] in
  List.iter
    (fun line ->
      if line.[0] = '#' then comments := line :: !comments
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "openmetrics line without a value: %S" line
        | Some i ->
          let series = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          let value =
            if value = "+Inf" then infinity
            else
              match float_of_string_opt value with
              | Some v -> v
              | None -> Alcotest.failf "non-numeric sample value in %S" line
          in
          let name, labels =
            match String.index_opt series '{' with
            | None -> (series, "")
            | Some j ->
              if series.[String.length series - 1] <> '}' then
                Alcotest.failf "unterminated label set in %S" line;
              ( String.sub series 0 j,
                String.sub series (j + 1) (String.length series - j - 2) )
          in
          String.iter
            (fun c ->
              match c with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
              | c -> Alcotest.failf "bad metric-name char %C in %S" c line)
            name;
          samples := (name, labels, value) :: !samples)
    lines;
  (* !comments is newest-first: the last comment line must be the EOF marker *)
  (match !comments with
  | "# EOF" :: _ -> ()
  | _ -> Alcotest.fail "exposition does not end with # EOF");
  (List.rev !samples, List.rev !comments)

let test_openmetrics_roundtrip () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.om_ctr" in
  let g = Obs.Gauge.make "test.om-gauge" in
  let h = Obs.Histogram.make "test.om_hist" in
  Obs.Span.with_ "om.span" (fun () ->
      Obs.Counter.add c 7;
      spin 0.001);
  Obs.Gauge.set g 2.5;
  List.iter (Obs.Histogram.observe h) [ 10; 20; 30 ];
  let text = Obs.openmetrics () in
  let samples, _ = parse_openmetrics text in
  let find name labels =
    match
      List.find_opt (fun (n, l, _) -> n = name && l = labels) samples
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "sample %s{%s} missing from exposition" name labels
  in
  (* counters: sanitized name + _total suffix, value = registry total *)
  Alcotest.(check (float 0.)) "counter total" 7. (find "maxtruss_test_om_ctr_total" "");
  (* gauge: '-' sanitized to '_' *)
  Alcotest.(check (float 0.)) "gauge value" 2.5 (find "maxtruss_test_om_gauge" "");
  (* histogram family: _count/_sum agree with the registry *)
  Alcotest.(check (float 0.)) "hist count" 3. (find "maxtruss_test_om_hist_count" "");
  Alcotest.(check (float 0.)) "hist sum" 60. (find "maxtruss_test_om_hist_sum" "");
  Alcotest.(check (float 0.)) "hist +Inf bucket" 3.
    (find "maxtruss_test_om_hist_bucket" "le=\"+Inf\"");
  (* span-duration family: totals agree with the metrics JSON histograms *)
  let m = Obs.metrics_json () in
  check_json m;
  let j = match Json_min.parse m with Ok j -> j | Error e -> Alcotest.fail e in
  let span_hist_json path =
    match
      Json_min.(member "histograms" j |> Option.map (member "spans"))
    with
    | Some (Some spans) -> (
      match Json_min.member path spans with
      | Some h -> h
      | None -> Alcotest.failf "path %S missing from metrics histograms" path)
    | _ -> Alcotest.fail "metrics JSON lacks the histograms.spans section"
  in
  let hj = span_hist_json "om.span" in
  let count_json = Json_min.(num_or (-1.) (member "count" hj)) in
  let sum_json = Json_min.(num_or (-1.) (member "sum" hj)) in
  let om_count = find "maxtruss_span_duration_ns_count" "path=\"om.span\"" in
  let om_sum = find "maxtruss_span_duration_ns_sum" "path=\"om.span\"" in
  Alcotest.(check (float 0.)) "span count: OpenMetrics = JSON" count_json om_count;
  Alcotest.(check (float 0.)) "span sum: OpenMetrics = JSON" sum_json om_sum;
  (* per-family _bucket series are cumulative and end at _count *)
  let buckets =
    List.filter_map
      (fun (n, l, v) ->
        if n = "maxtruss_test_om_hist_bucket" then Some (l, v) else None)
      samples
  in
  let values = List.map snd buckets in
  Alcotest.(check bool) "bucket series present" true (List.length values >= 2);
  Alcotest.(check bool) "bucket counts monotone" true
    (let rec mono = function
       | a :: (b :: _ as r) -> a <= b && mono r
       | _ -> true
     in
     mono values)

(* --- flight recorder --- *)

let test_flight_recorder_ring () =
  with_obs @@ fun () ->
  (* restore whatever ring was armed before (MAXTRUSS_FLIGHT_RECORD in
     CI) rather than disabling it for the rest of the process *)
  let prior = Obs.Flight_recorder.capacity () in
  Obs.Flight_recorder.configure ~capacity:4;
  Fun.protect ~finally:(fun () -> Obs.Flight_recorder.configure ~capacity:prior)
  @@ fun () ->
  for i = 1 to 7 do
    Obs.Span.with_ (Printf.sprintf "fr%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "all closes recorded" 7 (Obs.Flight_recorder.recorded ());
  Alcotest.(check int) "capacity" 4 (Obs.Flight_recorder.capacity ());
  let dump = Obs.Flight_recorder.dump_json () in
  check_json dump;
  (* only the last 4 spans survive, oldest first *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " retained") true (contains dump name))
    [ "fr4"; "fr5"; "fr6"; "fr7" ];
  Alcotest.(check bool) "older span evicted" false (contains dump "\"fr3\"");
  (* the ring survives Obs.reset: it is a process-lifetime tail *)
  Obs.reset ();
  Obs.set_enabled true;
  Alcotest.(check int) "ring survives reset" 7 (Obs.Flight_recorder.recorded ())

(* Forced abort: a child process configures the recorder, installs the
   crash hooks, runs spans, then SIGTERMs itself mid-run.  The parent
   must find a loadable Chrome-trace dump with the last N spans, and the
   child must still die by SIGTERM (the handler re-delivers it).

   [Unix.fork] is off-limits once any domain has been spawned (OCaml 5),
   and earlier tests spawn domains — so the child is a re-exec of this
   very test binary, short-circuited by [test_main] into
   {!flight_recorder_child} via the MAXTRUSS_FLIGHT_CHILD env var. *)
let flight_recorder_child dump =
  Obs.set_enabled true;
  Obs.Flight_recorder.configure ~capacity:8;
  Obs.Flight_recorder.set_dump_path (Some dump);
  Obs.Flight_recorder.install_crash_hooks ();
  for i = 1 to 12 do
    Obs.Span.with_ (Printf.sprintf "doomed%d" i) (fun () -> ())
  done;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* unreachable: the handler re-delivers with the default disposition *)
  Stdlib.exit 42

let test_flight_recorder_abort () =
  let dir = Filename.temp_file "flightrec" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let dump = Filename.concat dir "flight.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dump then Sys.remove dump;
      Unix.rmdir dir)
  @@ fun () ->
  let env =
    Array.append (Unix.environment ())
      [| "MAXTRUSS_FLIGHT_CHILD=" ^ dump |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  (match status with
    | Unix.WSIGNALED s when s = Sys.sigterm -> ()
    | Unix.WSIGNALED s -> Alcotest.failf "child died by unexpected signal %d" s
    | Unix.WEXITED c -> Alcotest.failf "child exited %d instead of dying by SIGTERM" c
    | Unix.WSTOPPED _ -> Alcotest.fail "child stopped");
    Alcotest.(check bool) "dump written by the signal hook" true (Sys.file_exists dump);
    let contents = In_channel.with_open_bin dump In_channel.input_all in
    check_json contents;
    (match Json_min.parse contents with
    | Error e -> Alcotest.failf "dump does not parse: %s" e
    | Ok j -> (
      match Json_min.(member "traceEvents" j |> Option.map to_arr) with
      | Some (Some events) ->
        let xs =
          List.filter
            (fun e ->
              match Json_min.(member "ph" e |> Option.map to_str) with
              | Some (Some "X") -> true
              | _ -> false)
            events
        in
        Alcotest.(check int) "last 8 spans retained" 8 (List.length xs);
        (* oldest retained span is doomed5, newest doomed12 *)
        Alcotest.(check bool) "tail is the most recent spans" true
          (contains contents "doomed12" && contains contents "doomed5"
          && not (contains contents "doomed4"))
      | _ -> Alcotest.fail "dump lacks a traceEvents array"))

(* Live inspection: SIGUSR1 must dump the ring and NOT kill the process.
   Same re-exec scheme (MAXTRUSS_FLIGHT_USR1_CHILD); the child self-signals,
   keeps computing, verifies the dump appeared, and exits 0. *)
let flight_recorder_usr1_child dump =
  Obs.set_enabled true;
  Obs.Flight_recorder.configure ~capacity:8;
  Obs.Flight_recorder.set_dump_path (Some dump);
  Obs.Flight_recorder.install_crash_hooks ();
  for i = 1 to 5 do
    Obs.Span.with_ (Printf.sprintf "alive%d" i) (fun () -> ())
  done;
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  (* OCaml delivers signals at allocation points; loop until the handler
     has run and the dump exists (bounded by the span count) *)
  let rec wait n =
    if Sys.file_exists dump then ()
    else if n = 0 then Stdlib.exit 3
    else begin
      Obs.Span.with_ "spin" (fun () -> ignore (Sys.opaque_identity (Array.make 16 0)));
      wait (n - 1)
    end
  in
  wait 10_000;
  (* still alive after the dump: record one more span, then leave cleanly
     (drop the dump path so at_exit doesn't overwrite the USR1 snapshot) *)
  Obs.Span.with_ "survivor" (fun () -> ());
  Obs.Flight_recorder.set_dump_path None;
  Stdlib.exit 0

let test_flight_recorder_usr1 () =
  let dir = Filename.temp_file "flightusr1" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let dump = Filename.concat dir "flight.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dump then Sys.remove dump;
      Unix.rmdir dir)
  @@ fun () ->
  let env =
    Array.append (Unix.environment ())
      [| "MAXTRUSS_FLIGHT_USR1_CHILD=" ^ dump |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED 3 -> Alcotest.fail "USR1 handler never produced a dump"
  | Unix.WEXITED c -> Alcotest.failf "child exited %d" c
  | Unix.WSIGNALED s -> Alcotest.failf "child died by signal %d (USR1 must be non-fatal)" s
  | Unix.WSTOPPED _ -> Alcotest.fail "child stopped");
  Alcotest.(check bool) "dump written while running" true (Sys.file_exists dump);
  let contents = In_channel.with_open_bin dump In_channel.input_all in
  check_json contents;
  Alcotest.(check bool) "snapshot holds the pre-signal spans" true
    (contains contents "alive5")

(* --- wide-event log (Obs.Events) --- *)

let with_event_log f =
  let path = Filename.temp_file "events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.close ();
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Obs.Events.configure path;
  f ();
  Obs.Events.close ();
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  lines

let emit ?(id = None) ?(exec_ns = 100) pos =
  Obs.Events.emit_request ~op:"trussness" ~id ~gen:2 ~epoch_age:1 ~queue_ns:50
    ~exec_ns ~batch_size:10 ~batch_pos:pos ~ok:true

let parsed_requests lines =
  (* every line must be standalone well-formed JSON; split off the header *)
  let objs =
    List.map
      (fun l ->
        match Json_min.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "event line is not JSON (%s): %s" e l)
      lines
  in
  match objs with
  | [] -> Alcotest.fail "event log is empty (missing start header)"
  | header :: rest ->
    Alcotest.(check (option string))
      "header schema" (Some "maxtruss-serve-events")
      Json_min.(member "schema" header |> Option.map to_str |> Option.join);
    Alcotest.(check (option int))
      "header version" (Some 2)
      Json_min.(member "version" header |> Option.map to_int |> Option.join);
    List.iter
      (fun j ->
        Alcotest.(check (option string))
          "request event" (Some "request")
          Json_min.(member "event" j |> Option.map to_str |> Option.join))
      rest;
    rest

let test_events_jsonl () =
  let lines = with_event_log (fun () ->
      emit ~id:(Some "\"req-1\"") 0;
      emit ~id:(Some "7") ~exec_ns:250 1;
      emit 2)
  in
  let reqs = parsed_requests lines in
  Alcotest.(check int) "all three events written" 3 (List.length reqs);
  Alcotest.(check int) "written = 3" 3 (Obs.Events.written ());
  let first = List.nth reqs 0 in
  Alcotest.(check (option string)) "string id embedded verbatim" (Some "req-1")
    Json_min.(member "id" first |> Option.map to_str |> Option.join);
  let second = List.nth reqs 1 in
  Alcotest.(check (option int)) "integer id stays a number" (Some 7)
    Json_min.(member "id" second |> Option.map to_int |> Option.join);
  Alcotest.(check (option int)) "exec_ns field" (Some 250)
    Json_min.(member "exec_ns" second |> Option.map to_int |> Option.join);
  let third = List.nth reqs 2 in
  Alcotest.(check bool) "untraced event has no id field" true
    (Json_min.member "id" third = None);
  Alcotest.(check (option int)) "batch_pos field" (Some 2)
    Json_min.(member "batch_pos" third |> Option.map to_int |> Option.join);
  Alcotest.(check bool) "no slow field" true (Json_min.member "slow" third = None)

(* --- cross-domain exits --- *)

let test_cross_domain_exit_dropped () =
  with_obs @@ fun () ->
  let sp = Obs.Span.enter "owned" in
  let d = Domain.spawn (fun () -> Obs.Span.exit sp) in
  Domain.join d;
  (* the foreign exit was dropped: the span is still open on the owner *)
  Alcotest.(check (list (pair string int)))
    "drop surfaced as a counter"
    [ ("obs.cross_domain_exits", 1) ]
    (Obs.counters ());
  Obs.Span.exit sp;
  let s = find_stat (Obs.span_stats ()) "owned" in
  Alcotest.(check int) "owner exit still closes it" 1 s.Obs.count;
  Alcotest.(check bool) "span closed exactly once" true (s.Obs.total_s >= 0.)

(* --- Domain_scope after an exception --- *)

let test_scope_merge_after_exception () =
  with_obs @@ fun () ->
  Obs.Span.with_ "host" (fun () ->
      let sc = Obs.Domain_scope.create () in
      let d =
        Domain.spawn (fun () ->
            match
              Obs.Domain_scope.run sc (fun () ->
                  Obs.Span.with_ "done" (fun () -> ());
                  let _leaked = Obs.Span.enter "leaked" in
                  failwith "task blew up")
            with
            | () -> false
            | exception Failure _ -> true)
      in
      let propagated = Domain.join d in
      Alcotest.(check bool) "exception escaped run" true propagated;
      Obs.Domain_scope.merge sc);
  (* both the completed and the leaked-open span were closed by the scope
     drain and spliced under the host *)
  let stats = Obs.span_stats () in
  ignore (find_stat stats "host");
  ignore (find_stat stats "host/done");
  let leaked = find_stat stats "host/leaked" in
  Alcotest.(check bool) "leaked span got closed (dur >= 0)" true
    (leaked.Obs.total_s >= 0.);
  (* merged-after-exception spans still reach the histograms *)
  Alcotest.(check bool) "histogram fed for drained span" true
    (List.mem_assoc "host/leaked" (Obs.span_histograms ()))

(* --- sampled peak heap --- *)

let test_sampled_peak_heap () =
  with_obs @@ fun () ->
  (* the close-count modulus is process-global, so 64 closes guarantee at
     least one sample tick regardless of phase *)
  for _ = 1 to 64 do
    Obs.Span.with_ "tick" (fun () -> ignore (Sys.opaque_identity (Array.make 64 0)))
  done;
  (match List.assoc_opt "obs.peak_heap_samples" (Obs.gauges ()) with
  | Some v -> Alcotest.(check bool) "sample tick recorded" true (v > 0.)
  | None -> Alcotest.fail "obs.peak_heap_samples gauge missing");
  match List.assoc_opt "gc.peak_major_heap_words" (Obs.gauges ()) with
  | Some v -> Alcotest.(check bool) "peak heap positive" true (v > 0.)
  | None -> Alcotest.fail "gc.peak_major_heap_words gauge missing"

(* --- GC safety of the span path --- *)

(* With collection on, every span enter and exit reads the GC counters.
   A read that is not GC-safe aborts the runtime only for some minor-heap
   sizes (it depends on where the allocation pointer sits when the read
   collects), so children re-exec'd from this binary (MAXTRUSS_GC_CHILD,
   see test_main) run the same span-heavy loop under several sizes. *)
let gc_safety_child () =
  Obs.set_enabled true;
  for i = 1 to 20_000 do
    Obs.Span.with_ "batch" (fun () ->
        Obs.Span.with_ "maintain" (fun () ->
            ignore (Sys.opaque_identity (Array.make (i land 15) 0)));
        Obs.Span.with_ "index" (fun () -> ignore (Sys.opaque_identity (List.init 8 Fun.id))))
  done;
  Stdlib.exit 0

let test_span_path_gc_safe () =
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  in
  List.iter
    (fun minor_heap ->
      let env =
        Array.of_list (("OCAMLRUNPARAM=s=" ^ minor_heap) :: "MAXTRUSS_GC_CHILD=1" :: inherited)
      in
      let pid =
        Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env Unix.stdin
          Unix.stdout Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "minor heap %s: child exited %d" minor_heap c
      | Unix.WSIGNALED sg -> Alcotest.failf "minor heap %s: child killed by signal %d" minor_heap sg
      | Unix.WSTOPPED _ -> Alcotest.failf "minor heap %s: child stopped" minor_heap)
    [ "8k"; "16k"; "24k"; "32k"; "48k"; "64k"; "128k"; "192k" ]

let suite =
  [
    Alcotest.test_case "span nesting + exclusive time" `Quick test_span_nesting;
    Alcotest.test_case "counter attribution" `Quick test_counter_attribution;
    Alcotest.test_case "exit closes forgotten children" `Quick
      test_exit_closes_forgotten_children;
    Alcotest.test_case "counters deterministic (fixed seed)" `Quick
      test_counters_deterministic;
    Alcotest.test_case "disabled mode has no footprint" `Quick test_disabled_no_footprint;
    Alcotest.test_case "exported JSON parses" `Quick test_exported_json_parses;
    Alcotest.test_case "metrics contract fields" `Quick test_metrics_contract;
    Alcotest.test_case "PCFR phases have spans" `Quick test_pcfr_phase_spans;
    Alcotest.test_case "baselines peel their input once" `Quick test_baselines_peel_once;
    Alcotest.test_case "with_ preserves backtraces" `Quick test_with_preserves_backtrace;
    Alcotest.test_case "?args JSON escaping (both exporters)" `Quick
      test_args_json_escaping;
    Alcotest.test_case "allocation attribution + peak gauge" `Quick
      test_alloc_attribution;
    Alcotest.test_case "v2 alloc fields absent when disabled" `Quick
      test_v2_fields_absent_when_disabled;
    Alcotest.test_case "reset invalidates handles" `Quick test_reset_invalidates_handles;
    Alcotest.test_case "Hdr log-linear histogram" `Quick test_hdr_histogram;
    Alcotest.test_case "Hdr quantile within 1/64" `Quick test_hdr_bound;
    Alcotest.test_case "registered histograms" `Quick test_registered_histogram;
    Alcotest.test_case "span duration quantiles" `Quick test_span_quantiles;
    Alcotest.test_case "span histograms count closed spans only" `Quick
      test_span_histograms_closed_only;
    Alcotest.test_case "scope spans feed path histograms" `Quick
      test_scope_spans_feed_histograms;
    Alcotest.test_case "OpenMetrics round-trip" `Quick test_openmetrics_roundtrip;
    Alcotest.test_case "flight recorder ring" `Quick test_flight_recorder_ring;
    Alcotest.test_case "flight recorder dumps on fatal signal" `Quick
      test_flight_recorder_abort;
    Alcotest.test_case "flight recorder SIGUSR1 dump keeps process alive" `Quick
      test_flight_recorder_usr1;
    Alcotest.test_case "event log: JSONL shape + trace ids" `Quick test_events_jsonl;
    Alcotest.test_case "cross-domain exit dropped + counted" `Quick
      test_cross_domain_exit_dropped;
    Alcotest.test_case "scope merge after exception" `Quick
      test_scope_merge_after_exception;
    Alcotest.test_case "sampled peak heap" `Quick test_sampled_peak_heap;
    Alcotest.test_case "span path survives small minor heaps" `Quick test_span_path_gc_safe;
  ]
