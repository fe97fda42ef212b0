open Graphcore
open Maxtruss

let small_social () =
  let rng = Rng.create 31 in
  let base = Gen.powerlaw_cluster ~rng ~n:150 ~m:5 ~p:0.6 in
  Gen.with_communities ~rng ~base ~communities:6 ~size_min:8 ~size_max:12 ~drop:0.25

let test_rd_respects_budget () =
  let g = small_social () in
  let o = Baselines.rd ~rng:(Rng.create 1) ~g ~k:6 ~budget:15 in
  Alcotest.(check bool) "at most b insertions" true (List.length o.Outcome.inserted <= 15);
  Alcotest.(check bool) "score verified non-negative" true (o.Outcome.score >= 0)

let test_rd_inserts_new_edges () =
  let g = small_social () in
  let o = Baselines.rd ~rng:(Rng.create 2) ~g ~k:6 ~budget:10 in
  List.iter
    (fun (u, v) ->
      if Graph.mem_edge g u v then Alcotest.failf "RD proposed existing edge (%d,%d)" u v)
    o.Outcome.inserted

let test_rd_graph_untouched () =
  let g = small_social () in
  let before = Graph.num_edges g in
  ignore (Baselines.rd ~rng:(Rng.create 3) ~g ~k:6 ~budget:10);
  Alcotest.(check int) "graph unchanged" before (Graph.num_edges g)

let test_cbtm_fig1 () =
  let g = Helpers.fig1 () in
  let o = Baselines.cbtm ~g ~k:4 ~budget:2 in
  Alcotest.(check int) "CBTM converts one component" 8 o.Outcome.score;
  let o4 = Baselines.cbtm ~g ~k:4 ~budget:4 in
  Alcotest.(check int) "CBTM converts both with b=4" 16 o4.Outcome.score

let test_cbtm_zero_budget () =
  let g = Helpers.fig1 () in
  let o = Baselines.cbtm ~g ~k:4 ~budget:0 in
  Alcotest.(check int) "nothing inserted" 0 (List.length o.Outcome.inserted)

let test_cbtm_revenues_single_pair () =
  let g = Helpers.fig1 () in
  let revenues = Baselines.cbtm_revenues ~g ~k:4 ~budget:10 in
  Alcotest.(check int) "one menu per component" 2 (Array.length revenues);
  Array.iter
    (fun menu -> Alcotest.(check bool) "at most one pair" true (List.length menu <= 1))
    revenues

let test_gtm_fig1 () =
  let g = Helpers.fig1 () in
  let o = Baselines.gtm ~g ~k:4 ~budget:4 () in
  Alcotest.(check bool) "GTM achieves something" true (o.Outcome.score > 0);
  Alcotest.(check bool) "budget respected" true (List.length o.Outcome.inserted <= 4)

let gowalla_sample () = (Datasets.Registry.find "gowalla-sample").Datasets.Registry.build ()

(* A baseline's plan, sorted, and its verified score against a golden. *)
let check_golden o ~plan ~score =
  let sorted = List.sort compare (List.map (fun (u, v) -> (min u v, max u v)) o.Outcome.inserted) in
  Alcotest.(check (list (pair int int))) "plan" plan sorted;
  Alcotest.(check int) "score" score o.Outcome.score

(* GTM on gowalla-sample (k = 6, b = 8): the sorted plan and its verified
   score.  Each greedy step scores a candidate against the component's
   committed plan, so a change to how commits feed later gains moves this
   plan. *)
let test_gtm_golden_sample () =
  let o = Baselines.gtm ~g:(gowalla_sample ()) ~k:6 ~budget:8 () in
  check_golden o
    ~plan:[ (4, 8); (5, 290); (45, 475); (149, 319); (163, 484); (187, 1074); (300, 384); (370, 1037) ]
    ~score:136

(* CBTM on gowalla-sample (k = 6, b = 30): the whole-component
   conversions its binary DP picks (29 of the 30 edges spent). *)
let test_cbtm_golden_sample () =
  let o = Baselines.cbtm ~g:(gowalla_sample ()) ~k:6 ~budget:30 in
  check_golden o
    ~plan:
      [
        (0, 21); (0, 24); (0, 643); (1, 46); (2, 13); (2, 74); (4, 8); (5, 290); (18, 402);
        (21, 1015); (22, 736); (37, 724); (37, 797); (74, 776); (74, 859); (78, 407); (110, 725);
        (149, 859); (163, 484); (186, 1182); (187, 1074); (300, 384); (327, 1130); (370, 1037);
        (425, 428); (498, 752); (541, 699); (704, 1148); (724, 849);
      ]
    ~score:255

(* RD on gowalla-sample (k = 6, b = 30, rng seed 5): the draw from the
   stable candidate pool. *)
let test_rd_golden_sample () =
  let o = Baselines.rd ~rng:(Rng.create 5) ~g:(gowalla_sample ()) ~k:6 ~budget:30 in
  check_golden o
    ~plan:
      [
        (2, 52); (2, 93); (2, 133); (2, 1037); (3, 957); (4, 36); (6, 27); (6, 68); (8, 297);
        (9, 186); (10, 11); (10, 13); (10, 28); (10, 75); (11, 12); (13, 60); (14, 24);
        (18, 704); (22, 749); (99, 163); (163, 488); (228, 1032); (319, 692); (319, 1100);
        (541, 1072); (689, 1154); (704, 1148); (914, 1192); (1032, 1072); (1072, 1100);
      ]
    ~score:84

(* A pair can sit in the candidate pools of several components; GTM must
   commit it once, so a b = 60 plan holds 60 distinct pairs. *)
let test_gtm_distinct_pairs () =
  let o = Baselines.gtm ~g:(gowalla_sample ()) ~k:6 ~budget:60 () in
  let keys =
    List.sort_uniq compare (List.map (fun (u, v) -> Edge_key.make u v) o.Outcome.inserted)
  in
  Alcotest.(check int) "plan length" 60 (List.length o.Outcome.inserted);
  Alcotest.(check int) "distinct pairs" 60 (List.length keys)

let test_gtm_respects_time_limit () =
  let g = small_social () in
  let t0 = Unix.gettimeofday () in
  let o = Baselines.gtm ~g ~k:6 ~budget:1000 ~time_limit_s:0.2 () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "bounded wall clock" true (elapsed < 10.0);
  ignore o

let test_ordering_on_small_social () =
  (* The headline shape: PCFR beats every baseline. *)
  let g = small_social () in
  let k = 6 and budget = 30 in
  let rd = Baselines.rd ~rng:(Rng.create 4) ~g ~k ~budget in
  let cbtm = Baselines.cbtm ~g ~k ~budget in
  let pcfr = Pcfr.pcfr ~g ~k ~budget () in
  Alcotest.(check bool) "PCFR >= CBTM" true
    (pcfr.Pcfr.outcome.Outcome.score >= cbtm.Outcome.score);
  Alcotest.(check bool) "PCFR >= RD" true (pcfr.Pcfr.outcome.Outcome.score >= rd.Outcome.score)

let suite =
  [
    Alcotest.test_case "RD respects budget" `Quick test_rd_respects_budget;
    Alcotest.test_case "RD inserts new edges" `Quick test_rd_inserts_new_edges;
    Alcotest.test_case "RD leaves graph untouched" `Quick test_rd_graph_untouched;
    Alcotest.test_case "CBTM on fig1" `Quick test_cbtm_fig1;
    Alcotest.test_case "CBTM zero budget" `Quick test_cbtm_zero_budget;
    Alcotest.test_case "CBTM revenues are binary" `Quick test_cbtm_revenues_single_pair;
    Alcotest.test_case "GTM on fig1" `Quick test_gtm_fig1;
    Alcotest.test_case "GTM golden plan on gowalla-sample" `Quick test_gtm_golden_sample;
    Alcotest.test_case "CBTM golden plan on gowalla-sample" `Quick test_cbtm_golden_sample;
    Alcotest.test_case "RD golden plan on gowalla-sample" `Quick test_rd_golden_sample;
    Alcotest.test_case "GTM commits each pair once" `Quick test_gtm_distinct_pairs;
    Alcotest.test_case "GTM time limit" `Quick test_gtm_respects_time_limit;
    Alcotest.test_case "ordering on small social" `Slow test_ordering_on_small_social;
  ]
