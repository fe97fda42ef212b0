(* Perf_baseline: robust statistics, baseline file roundtrip through the
   Json_min parser, the regression comparator on synthetic deltas
   (regression / improvement / within-MAD noise / added / removed), and
   schema-version rejection. *)

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let check_feq ?eps msg a b = Alcotest.(check bool) msg true (feq ?eps a b)

(* --- statistics --- *)

let test_median_mad () =
  check_feq "median odd" 3. (Perf_baseline.median [| 5.; 1.; 3.; 2.; 4. |]);
  check_feq "median even" 2.5 (Perf_baseline.median [| 4.; 1.; 2.; 3. |]);
  check_feq "median empty" 0. (Perf_baseline.median [||]);
  check_feq "median singleton" 7. (Perf_baseline.median [| 7. |]);
  (* |x - 3| over 5..4 = [2;2;0;1;1] -> median 1 *)
  check_feq "mad" 1. (Perf_baseline.mad [| 5.; 1.; 3.; 2.; 4. |]);
  check_feq "mad empty" 0. (Perf_baseline.mad [||]);
  check_feq "mad constant" 0. (Perf_baseline.mad [| 9.; 9.; 9. |]);
  (* one wild outlier moves the median by one rank and the MAD barely *)
  let noisy = [| 100.; 101.; 99.; 100.; 1e9 |] in
  check_feq "median robust to outlier" 100. (Perf_baseline.median noisy);
  Alcotest.(check bool) "mad robust to outlier" true (Perf_baseline.mad noisy <= 1.)

let test_of_samples () =
  let e =
    Perf_baseline.of_samples ~name:"k" ~ns:[| 5.; 1.; 3.; 2.; 4. |]
      ~alloc_w:[| 10.; 30.; 20. |]
  in
  Alcotest.(check string) "name" "k" e.Perf_baseline.name;
  check_feq "median_ns" 3. e.Perf_baseline.median_ns;
  check_feq "mad_ns" 1. e.Perf_baseline.mad_ns;
  Alcotest.(check int) "samples" 5 e.Perf_baseline.samples;
  check_feq "alloc median" 20. e.Perf_baseline.alloc_w

(* --- file format --- *)

let entry name median mad samples alloc =
  { Perf_baseline.name; median_ns = median; mad_ns = mad; samples; alloc_w = alloc }

let mk entries = { Perf_baseline.entries }

let test_roundtrip () =
  let t =
    mk
        [
          entry "kernels/csr_support@gowalla" 5080822.112 1234.5 180 98765.;
          entry "kernels/noisy_kernel@gowalla" 100. 40. 12 5000.;
          entry "odd \"name\" with\\escapes" 1.25 0. 5 0.;
        ]
  in
  let file = Filename.temp_file "baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Perf_baseline.write file t;
  match Perf_baseline.read file with
  | Error e -> Alcotest.failf "roundtrip read failed: %s" e
  | Ok t' ->
    Alcotest.(check int) "entry count" 3 (List.length t'.Perf_baseline.entries);
    List.iter2
      (fun (a : Perf_baseline.entry) (b : Perf_baseline.entry) ->
        Alcotest.(check string) "name" a.Perf_baseline.name b.Perf_baseline.name;
        check_feq ~eps:1e-3 "median" a.Perf_baseline.median_ns b.Perf_baseline.median_ns;
        check_feq ~eps:1e-3 "mad" a.Perf_baseline.mad_ns b.Perf_baseline.mad_ns;
        Alcotest.(check int) "samples" a.Perf_baseline.samples b.Perf_baseline.samples;
        check_feq ~eps:1e-3 "alloc" a.Perf_baseline.alloc_w b.Perf_baseline.alloc_w)
      t.Perf_baseline.entries t'.Perf_baseline.entries

let expect_error msg = function
  | Ok _ -> Alcotest.failf "%s: expected an error" msg
  | Error e -> Alcotest.(check bool) (msg ^ " mentions cause") true (String.length e > 0)

let test_schema_rejection () =
  expect_error "version mismatch"
    (Perf_baseline.of_json
       "{\"schema\": \"maxtruss-perf-baseline\", \"version\": 99, \"entries\": []}");
  (* only the current schema version is read *)
  List.iter
    (fun v ->
      expect_error
        (Printf.sprintf "version %d rejected" v)
        (Perf_baseline.of_json
           (Printf.sprintf
              "{\"schema\": \"maxtruss-perf-baseline\", \"version\": %d, \"entries\": []}" v)))
    [ 1; 2 ];
  expect_error "wrong schema name"
    (Perf_baseline.of_json
       "{\"schema\": \"something-else\", \"version\": 3, \"entries\": []}");
  expect_error "missing schema" (Perf_baseline.of_json "{\"entries\": []}");
  expect_error "not json" (Perf_baseline.of_json "not json at all");
  expect_error "missing entries"
    (Perf_baseline.of_json "{\"schema\": \"maxtruss-perf-baseline\", \"version\": 3}");
  expect_error "unreadable file" (Perf_baseline.read "/nonexistent/path/baseline.json")

(* --- comparator --- *)

let verdict_of deltas name =
  match List.find_opt (fun d -> d.Perf_baseline.d_name = name) deltas with
  | Some d -> d.Perf_baseline.d_verdict
  | None -> Alcotest.failf "kernel %S missing from deltas" name

let vd =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Perf_baseline.Regression -> "Regression"
        | Improvement -> "Improvement"
        | Unchanged -> "Unchanged"
        | Added -> "Added"
        | Removed -> "Removed"))
    ( = )

let test_compare_verdicts () =
  let baseline =
    mk
        [
          entry "steady" 100. 2. 50 1000.;
          entry "faster" 100. 2. 50 1000.;
          entry "noisy" 100. 50. 50 1000.;
          entry "gone" 100. 2. 50 1000.;
        ]
  in
  let fresh =
    mk
        [
          entry "steady" 200. 2. 50 1000.;  (* +100% >> max(25%, 5*2) *)
          entry "faster" 50. 2. 50 1000.;   (* -50% *)
          entry "noisy" 130. 50. 50 1000.;  (* within 5*MAD = 250 band *)
          entry "new" 42. 1. 50 10.;
        ]
  in
  let deltas = Perf_baseline.compare ~rel_tol:0.25 ~mad_k:5.0 ~baseline ~fresh () in
  Alcotest.(check int) "one delta per union kernel" 5 (List.length deltas);
  Alcotest.check vd "regression" Perf_baseline.Regression (verdict_of deltas "steady");
  Alcotest.check vd "improvement" Perf_baseline.Improvement (verdict_of deltas "faster");
  Alcotest.check vd "noisy stays ok" Perf_baseline.Unchanged (verdict_of deltas "noisy");
  Alcotest.check vd "added" Perf_baseline.Added (verdict_of deltas "new");
  Alcotest.check vd "removed" Perf_baseline.Removed (verdict_of deltas "gone");
  Alcotest.(check (list string))
    "regressions filter" [ "steady" ]
    (List.map
       (fun d -> d.Perf_baseline.d_name)
       (Perf_baseline.regressions deltas));
  (* identical runs never regress, whatever the tolerances *)
  let self = Perf_baseline.compare ~rel_tol:0. ~mad_k:0. ~baseline ~fresh:baseline () in
  Alcotest.(check int) "self-compare clean" 0
    (List.length (Perf_baseline.regressions self))

let test_compare_thresholds () =
  (* MAD term dominates when the kernel is noisy; rel term when it is not. *)
  let base = mk [ entry "a" 1000. 100. 9 0. ] in
  let fresh v = mk [ entry "a" v 100. 9 0. ] in
  let verdict v =
    verdict_of (Perf_baseline.compare ~rel_tol:0.1 ~mad_k:5.0 ~baseline:base ~fresh:(fresh v) ()) "a"
  in
  (* threshold = max(0.1*1000, 5*100) = 500 *)
  Alcotest.check vd "inside MAD band" Perf_baseline.Unchanged (verdict 1400.);
  Alcotest.check vd "outside MAD band" Perf_baseline.Regression (verdict 1501.);
  Alcotest.check vd "improved outside band" Perf_baseline.Improvement (verdict 400.)


let test_alloc_gate () =
  let delta_of deltas name =
    match List.find_opt (fun d -> d.Perf_baseline.d_name = name) deltas with
    | Some d -> d
    | None -> Alcotest.failf "kernel %S missing from deltas" name
  in
  let baseline =
    mk [ entry "big" 100. 0. 9 100000.; entry "tiny" 100. 0. 9 100. ]
  in
  (* big: +100% alloc, way past 50% + floor; tiny: +2900w, under the 4096w
     absolute floor even though it is a 29x relative jump. *)
  let fresh =
    mk [ entry "big" 100. 0. 9 200000.; entry "tiny" 100. 0. 9 3000. ]
  in
  let deltas = Perf_baseline.compare ~baseline ~fresh () in
  let big = delta_of deltas "big" and tiny = delta_of deltas "tiny" in
  Alcotest.(check bool) "big alloc regresses" true big.Perf_baseline.d_alloc_regression;
  Alcotest.check vd "big time verdict unchanged" Perf_baseline.Unchanged
    big.Perf_baseline.d_verdict;
  Alcotest.(check bool) "tiny under absolute floor" false
    tiny.Perf_baseline.d_alloc_regression;
  Alcotest.(check (list string))
    "regressions include alloc-only failures" [ "big" ]
    (List.map (fun d -> d.Perf_baseline.d_name) (Perf_baseline.regressions deltas));
  (* +40% stays inside the fixed 50% relative band *)
  let within = mk [ entry "big" 100. 0. 9 140000.; entry "tiny" 100. 0. 9 100. ] in
  Alcotest.(check int) "alloc within the 50% band" 0
    (List.length (Perf_baseline.regressions (Perf_baseline.compare ~baseline ~fresh:within ())))

(* of_json failures must name the kernel (or entry position) and the field
   in one line — the string an operator sees when a hand-edited baseline
   goes wrong. *)
let test_error_messages () =
  let check_msg what expected json =
    match Perf_baseline.of_json json with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S appears in %S" what expected msg)
        true
        (Helpers.contains msg expected)
  in
  let doc entries =
    Printf.sprintf
      "{\"schema\": \"maxtruss-perf-baseline\", \"version\": 3, \"entries\": [%s]}" entries
  in
  check_msg "nameless entry is positional" "entry 2:"
    (doc "{ \"name\": \"a\", \"median_ns\": 1 }, { \"median_ns\": 2 }");
  check_msg "bad field names the kernel" "kernel \"a\": field \"median_ns\""
    (doc "{ \"name\": \"a\", \"median_ns\": \"fast\" }");
  check_msg "wrong-typed field is an error" "kernel \"a\": field \"mad_ns\""
    (doc "{ \"name\": \"a\", \"mad_ns\": [] }")

let suite =
  [
    Alcotest.test_case "median + mad" `Quick test_median_mad;
    Alcotest.test_case "error messages name kernel and field" `Quick test_error_messages;
    Alcotest.test_case "of_samples" `Quick test_of_samples;
    Alcotest.test_case "write/read roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "schema rejection" `Quick test_schema_rejection;
    Alcotest.test_case "compare verdicts" `Quick test_compare_verdicts;
    Alcotest.test_case "compare thresholds" `Quick test_compare_thresholds;
    Alcotest.test_case "alloc gate" `Quick test_alloc_gate;
  ]
