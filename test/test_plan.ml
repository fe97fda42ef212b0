open Graphcore
open Maxtruss

let mk_pair cost score =
  (* fabricate distinct inserted edges to match the cost *)
  let inserted = List.init cost (fun i -> Edge_key.make (1000 + i) (2000 + i)) in
  { Plan.inserted; cost; score }

let test_make_dedupes () =
  let e = Edge_key.make 1 2 in
  let p = Plan.make ~inserted:[ e; e; Edge_key.make 3 4 ] ~score:7 in
  Alcotest.(check int) "cost after dedupe" 2 p.Plan.cost

let test_normalize_removes_dominated () =
  let r = Plan.normalize [ mk_pair 1 5; mk_pair 2 4; mk_pair 3 9 ] in
  Alcotest.(check (list (pair int int)))
    "dominated pair dropped"
    [ (1, 5); (3, 9) ]
    (List.map (fun p -> (p.Plan.cost, p.Plan.score)) r)

let test_normalize_same_cost_keeps_best () =
  let r = Plan.normalize [ mk_pair 2 3; mk_pair 2 8; mk_pair 2 5 ] in
  Alcotest.(check (list (pair int int))) "best of equal costs" [ (2, 8) ]
    (List.map (fun p -> (p.Plan.cost, p.Plan.score)) r)

let test_normalize_drops_trivial () =
  let r = Plan.normalize [ mk_pair 0 5; mk_pair 2 0; mk_pair 1 3 ] in
  Alcotest.(check (list (pair int int))) "zero cost/score dropped" [ (1, 3) ]
    (List.map (fun p -> (p.Plan.cost, p.Plan.score)) r)

let test_score_at_step_function () =
  let r = Plan.normalize [ mk_pair 2 5; mk_pair 4 9 ] in
  Alcotest.(check int) "below cheapest" 0 (Plan.score_at r 1);
  Alcotest.(check int) "at first" 5 (Plan.score_at r 2);
  Alcotest.(check int) "between" 5 (Plan.score_at r 3);
  Alcotest.(check int) "at second" 9 (Plan.score_at r 4);
  Alcotest.(check int) "beyond" 9 (Plan.score_at r 100)

let test_best_within () =
  let r = Plan.normalize [ mk_pair 2 5; mk_pair 4 9 ] in
  (match Plan.best_within r 3 with
  | Some p -> Alcotest.(check int) "best within 3" 5 p.Plan.score
  | None -> Alcotest.fail "expected a plan");
  Alcotest.(check bool) "none within 1" true (Plan.best_within r 1 = None)

let test_max_pair () =
  let r = Plan.normalize [ mk_pair 2 5; mk_pair 4 9 ] in
  match Plan.max_pair r with
  | Some p -> Alcotest.(check int) "max pair score" 9 p.Plan.score
  | None -> Alcotest.fail "expected a plan"

let test_thinning_keeps_extremes () =
  let pairs = List.init 300 (fun i -> mk_pair (i + 1) (i + 1)) in
  let r = Plan.normalize pairs in
  Alcotest.(check int) "thinned to 120 plans" 120 (List.length r);
  Alcotest.(check int) "cheapest kept" 1 (List.hd r).Plan.cost;
  Alcotest.(check int) "best kept" 300 (match Plan.max_pair r with Some p -> p.Plan.score | None -> 0)

let raw_pairs_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40) (QCheck2.Gen.map (fun (c, s) -> mk_pair c s)
      (pair (int_range 0 20) (int_range 0 50))))

let prop_normalized_invariant =
  QCheck2.Test.make ~name:"normalize output satisfies is_normalized" ~count:300 raw_pairs_gen
    (fun pairs -> Plan.is_normalized (Plan.normalize pairs))

let prop_score_at_monotone =
  QCheck2.Test.make ~name:"score_at is monotone in budget" ~count:200 raw_pairs_gen
    (fun pairs ->
      let r = Plan.normalize pairs in
      let ok = ref true in
      for x = 0 to 24 do
        if Plan.score_at r x > Plan.score_at r (x + 1) then ok := false
      done;
      !ok)

let prop_normalize_preserves_best =
  QCheck2.Test.make ~name:"normalize never loses the best affordable score" ~count:200
    raw_pairs_gen
    (fun pairs ->
      let r = Plan.normalize pairs in
      let ok = ref true in
      for budget = 1 to 22 do
        let best_raw =
          List.fold_left
            (fun acc (p : Plan.pair) ->
              if p.cost >= 1 && p.score >= 1 && p.cost <= budget then max acc p.score else acc)
            0 pairs
        in
        if Plan.score_at r budget <> best_raw then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "make dedupes" `Quick test_make_dedupes;
    Alcotest.test_case "normalize removes dominated" `Quick test_normalize_removes_dominated;
    Alcotest.test_case "same cost keeps best" `Quick test_normalize_same_cost_keeps_best;
    Alcotest.test_case "drops trivial" `Quick test_normalize_drops_trivial;
    Alcotest.test_case "score_at step function" `Quick test_score_at_step_function;
    Alcotest.test_case "best_within" `Quick test_best_within;
    Alcotest.test_case "max_pair" `Quick test_max_pair;
    Alcotest.test_case "thinning keeps extremes" `Quick test_thinning_keeps_extremes;
    Helpers.qtest prop_normalized_invariant;
    Helpers.qtest prop_score_at_monotone;
    Helpers.qtest prop_normalize_preserves_best;
  ]
