open Flow

(* Classic CLRS-style network with max flow 23. *)
let clrs () =
  let net = Flow_network.create ~nodes:6 in
  let add src dst cap = ignore (Flow_network.add_arc net ~src ~dst ~cap) in
  add 0 1 16;
  add 0 2 13;
  add 1 2 10;
  add 2 1 4;
  add 1 3 12;
  add 3 2 9;
  add 2 4 14;
  add 4 3 7;
  add 3 5 20;
  add 4 5 4;
  net

let test_clrs_max_flow () =
  Alcotest.(check int) "CLRS network flow" 23 (Dinic.max_flow (clrs ()) ~s:0 ~t:5)

let test_single_arc () =
  let net = Flow_network.create ~nodes:2 in
  ignore (Flow_network.add_arc net ~src:0 ~dst:1 ~cap:7);
  Alcotest.(check int) "single arc" 7 (Dinic.max_flow net ~s:0 ~t:1)

let test_disconnected () =
  let net = Flow_network.create ~nodes:3 in
  ignore (Flow_network.add_arc net ~src:0 ~dst:1 ~cap:5);
  Alcotest.(check int) "no path to sink" 0 (Dinic.max_flow net ~s:0 ~t:2)

let test_parallel_paths () =
  let net = Flow_network.create ~nodes:4 in
  let add src dst cap = ignore (Flow_network.add_arc net ~src ~dst ~cap) in
  add 0 1 3;
  add 1 3 3;
  add 0 2 4;
  add 2 3 4;
  Alcotest.(check int) "parallel paths sum" 7 (Dinic.max_flow net ~s:0 ~t:3)

let test_bottleneck () =
  let net = Flow_network.create ~nodes:4 in
  let add src dst cap = ignore (Flow_network.add_arc net ~src ~dst ~cap) in
  add 0 1 100;
  add 1 2 1;
  add 2 3 100;
  Alcotest.(check int) "bottleneck limits" 1 (Dinic.max_flow net ~s:0 ~t:3)

let test_min_cut_sides () =
  let net = clrs () in
  let cut = Min_cut.compute net ~s:0 ~t:5 in
  Alcotest.(check int) "cut value equals max flow" 23 cut.Min_cut.value;
  Alcotest.(check bool) "s on source side" true cut.Min_cut.source_side.(0);
  Alcotest.(check bool) "t on sink side" false cut.Min_cut.source_side.(5)

let test_cut_arcs_sum () =
  let net = clrs () in
  let cut = Min_cut.compute net ~s:0 ~t:5 in
  let total =
    List.fold_left (fun acc id -> acc + Flow_network.initial_cap net id) 0
      (Min_cut.cut_arcs net cut)
  in
  Alcotest.(check int) "cut arcs capacities sum to flow" cut.Min_cut.value total

let test_compute_max_same_value () =
  let net = clrs () in
  let cut = Min_cut.compute_max net ~s:0 ~t:5 in
  Alcotest.(check int) "max-side cut has the same value" 23 cut.Min_cut.value;
  Alcotest.(check bool) "separates" true
    (cut.Min_cut.source_side.(0) && not cut.Min_cut.source_side.(5))

let test_compute_max_breaks_ties_wide () =
  (* s -> a -> t with equal capacities: both cuts are minimal; compute
     reports {s}, compute_max reports {s, a}. *)
  let build () =
    let net = Flow_network.create ~nodes:3 in
    ignore (Flow_network.add_arc net ~src:0 ~dst:1 ~cap:5);
    ignore (Flow_network.add_arc net ~src:1 ~dst:2 ~cap:5);
    net
  in
  let minimal = Min_cut.compute (build ()) ~s:0 ~t:2 in
  Alcotest.(check bool) "minimal side excludes a" false minimal.Min_cut.source_side.(1);
  let maximal = Min_cut.compute_max (build ()) ~s:0 ~t:2 in
  Alcotest.(check bool) "maximal side includes a" true maximal.Min_cut.source_side.(1);
  Alcotest.(check int) "same value" minimal.Min_cut.value maximal.Min_cut.value

let test_reset () =
  let net = clrs () in
  ignore (Dinic.max_flow net ~s:0 ~t:5);
  Flow_network.reset net;
  Alcotest.(check int) "same flow after reset" 23 (Dinic.max_flow net ~s:0 ~t:5)

let test_send_guard () =
  let net = Flow_network.create ~nodes:2 in
  let id = Flow_network.add_arc net ~src:0 ~dst:1 ~cap:3 in
  Alcotest.check_raises "over-send rejected"
    (Invalid_argument "Flow_network.send: exceeds residual capacity") (fun () ->
      Flow_network.send net id 4)

let test_negative_cap_rejected () =
  let net = Flow_network.create ~nodes:2 in
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flow_network.add_arc: negative capacity") (fun () ->
      ignore (Flow_network.add_arc net ~src:0 ~dst:1 ~cap:(-1)))

(* Random-network properties: duality and cut validity. *)
let random_net_gen =
  QCheck2.Gen.(
    let* n = int_range 3 10 in
    let* arcs = list_size (int_range 1 40) (triple (int_range 0 9) (int_range 0 9) (int_range 0 20)) in
    return (n, arcs))

let build_net (n, arcs) =
  let net = Flow_network.create ~nodes:n in
  List.iter
    (fun (src, dst, cap) ->
      let src = src mod n and dst = dst mod n in
      if src <> dst then ignore (Flow_network.add_arc net ~src ~dst ~cap))
    arcs;
  net

let prop_duality =
  QCheck2.Test.make ~name:"max flow equals min cut capacity" ~count:200 random_net_gen
    (fun input ->
      let n, _ = input in
      let net = build_net input in
      let cut = Min_cut.compute net ~s:0 ~t:(n - 1) in
      let crossing =
        List.fold_left (fun acc id -> acc + Flow_network.initial_cap net id) 0
          (Min_cut.cut_arcs net cut)
      in
      crossing = cut.Min_cut.value)

let prop_cut_separates =
  QCheck2.Test.make ~name:"cut separates source from sink" ~count:200 random_net_gen
    (fun input ->
      let n, _ = input in
      let net = build_net input in
      let cut = Min_cut.compute net ~s:0 ~t:(n - 1) in
      cut.Min_cut.source_side.(0) && not cut.Min_cut.source_side.(n - 1))

let prop_flow_conservation =
  QCheck2.Test.make ~name:"flow conserves at internal nodes" ~count:200 random_net_gen
    (fun input ->
      let n, _ = input in
      let net = build_net input in
      ignore (Dinic.max_flow net ~s:0 ~t:(n - 1));
      (* Flow along arc id = initial_cap - residual cap (forward arcs). *)
      let inflow = Array.make n 0 and outflow = Array.make n 0 in
      for v = 0 to n - 1 do
        Flow_network.iter_arcs_from net v (fun id ->
            if id land 1 = 0 then begin
              let f = Flow_network.initial_cap net id - Flow_network.arc_cap net id in
              if f > 0 then begin
                outflow.(v) <- outflow.(v) + f;
                let d = Flow_network.arc_dst net id in
                inflow.(d) <- inflow.(d) + f
              end
            end)
      done;
      let ok = ref true in
      for v = 1 to n - 2 do
        if inflow.(v) <> outflow.(v) then ok := false
      done;
      !ok)

let prop_max_side_contains_min_side =
  QCheck2.Test.make ~name:"maximal source side contains the minimal one" ~count:200
    random_net_gen
    (fun input ->
      let n, _ = input in
      let a = Min_cut.compute (build_net input) ~s:0 ~t:(n - 1) in
      let b = Min_cut.compute_max (build_net input) ~s:0 ~t:(n - 1) in
      a.Min_cut.value = b.Min_cut.value
      && Array.for_all2
           (fun small big -> (not small) || big)
           a.Min_cut.source_side b.Min_cut.source_side)

let prop_max_side_cut_value =
  QCheck2.Test.make ~name:"maximal source side is also a minimum cut" ~count:200
    random_net_gen
    (fun input ->
      let n, _ = input in
      let net = build_net input in
      let cut = Min_cut.compute_max net ~s:0 ~t:(n - 1) in
      let crossing =
        List.fold_left (fun acc id -> acc + Flow_network.initial_cap net id) 0
          (Min_cut.cut_arcs net cut)
      in
      crossing = cut.Min_cut.value)

(* The recursive blocking-flow DFS this repo used to have overflowed the
   OCaml stack on level graphs this deep; the explicit-stack version must
   push the bottleneck down a 300k-arc path without incident. *)
let test_long_path () =
  let n = 300_000 in
  let net = Flow_network.create ~nodes:n in
  for v = 0 to n - 2 do
    ignore (Flow_network.add_arc net ~src:v ~dst:(v + 1) ~cap:(if v = n / 2 then 3 else 5))
  done;
  let flow, phases = Dinic.max_flow_ext net ~s:0 ~t:(n - 1) in
  Alcotest.(check int) "bottleneck through the long path" 3 flow;
  Alcotest.(check bool) "at least one phase" true (phases >= 1)

(* Regression for the former [grow] cell-aliasing hazard: growing past the
   initial 16-slot arc block and mutating one arc's capacity must leave
   every other arc untouched (the record-array representation filled fresh
   slots with one shared mutable cell). *)
let test_grow_past_16_arcs_no_aliasing () =
  let n = 40 in
  let net = Flow_network.create ~nodes:(n + 1) in
  let ids = Array.init n (fun v -> Flow_network.add_arc net ~src:v ~dst:(v + 1) ~cap:(10 + v)) in
  Flow_network.set_cap net ids.(20) 999;
  Flow_network.send net ids.(5) 4;
  Array.iteri
    (fun v id ->
      if v <> 20 && v <> 5 then begin
        Alcotest.(check int) (Printf.sprintf "cap of arc %d untouched" v) (10 + v)
          (Flow_network.arc_cap net id);
        Alcotest.(check int) (Printf.sprintf "init cap of arc %d untouched" v) (10 + v)
          (Flow_network.initial_cap net id)
      end)
    ids;
  Alcotest.(check int) "retuned arc" 999 (Flow_network.arc_cap net ids.(20));
  Alcotest.(check int) "sent-on arc residual" (10 + 5 - 4) (Flow_network.arc_cap net ids.(5))

let test_set_cap_preserves_flow () =
  (* Saturate a single arc, raise its capacity, and resume: Dinic must find
     exactly the increment. *)
  let net = Flow_network.create ~nodes:2 in
  let id = Flow_network.add_arc net ~src:0 ~dst:1 ~cap:7 in
  Alcotest.(check int) "first solve" 7 (Dinic.max_flow net ~s:0 ~t:1);
  Flow_network.set_cap net id 12;
  Alcotest.(check int) "residual grew by the delta" 5 (Flow_network.arc_cap net id);
  Alcotest.(check int) "resumed solve yields the increment" 5 (Dinic.max_flow net ~s:0 ~t:1);
  (* Lowering below the committed flow must be rejected... *)
  Alcotest.check_raises "cut below committed flow"
    (Invalid_argument "Flow_network.set_cap: below committed flow") (fun () ->
      Flow_network.set_cap net id 3);
  (* ... but is fine after a reset. *)
  Flow_network.reset net;
  Flow_network.set_cap net id 3;
  Alcotest.(check int) "fresh solve at the lowered cap" 3 (Dinic.max_flow net ~s:0 ~t:1)

let test_snapshot_restore () =
  let net = clrs () in
  ignore (Dinic.max_flow net ~s:0 ~t:5);
  let snap = Flow_network.snapshot net in
  let caps_at_snap = Array.init (Flow_network.num_arcs net) (Flow_network.arc_cap net) in
  Flow_network.reset net;
  ignore (Dinic.max_flow net ~s:0 ~t:5);
  Flow_network.restore net snap;
  let caps_restored = Array.init (Flow_network.num_arcs net) (Flow_network.arc_cap net) in
  Alcotest.(check (array int)) "residual caps restored" caps_at_snap caps_restored;
  Alcotest.(check int) "restored flow is already maximum" 0 (Dinic.max_flow net ~s:0 ~t:5)

(* --- Parametric warm-started engine ------------------------------------- *)

(* A 4-block diamond with gates: sources feed blocks, blocks gate to the
   sink with capacity base + max 0 (g - offset). *)
let parametric_fixture () =
  let p = Flow.Parametric.create ~nodes:6 ~source:4 ~sink:5 in
  Flow.Parametric.add_arc p ~src:4 ~dst:0 ~cap:20;
  Flow.Parametric.add_arc p ~src:4 ~dst:1 ~cap:20;
  Flow.Parametric.add_arc p ~src:4 ~dst:2 ~cap:20;
  Flow.Parametric.add_arc p ~src:4 ~dst:3 ~cap:20;
  Flow.Parametric.add_arc p ~src:0 ~dst:1 ~cap:3;
  Flow.Parametric.add_arc p ~src:2 ~dst:3 ~cap:5;
  Flow.Parametric.add_gate p ~src:0 ~base:2 ~offset:4;
  Flow.Parametric.add_gate p ~src:1 ~base:0 ~offset:2;
  Flow.Parametric.add_gate p ~src:2 ~base:1 ~offset:7;
  Flow.Parametric.add_gate p ~src:3 ~base:0 ~offset:1;
  p

(* The from-scratch reference: same topology, gate caps fixed at g. *)
let parametric_fixture_cold g =
  let net = Flow_network.create ~nodes:6 in
  let add src dst cap = ignore (Flow_network.add_arc net ~src ~dst ~cap) in
  add 4 0 20;
  add 4 1 20;
  add 4 2 20;
  add 4 3 20;
  add 0 1 3;
  add 2 3 5;
  let gate src base offset = add src 5 (base + max 0 (g - offset)) in
  gate 0 2 4;
  gate 1 0 2;
  gate 2 1 7;
  gate 3 0 1;
  Min_cut.compute_max net ~s:4 ~t:5

let check_parametric_sequence name gs =
  let p = parametric_fixture () in
  List.iter
    (fun g ->
      let warm = Flow.Parametric.solve p ~g in
      let cold = parametric_fixture_cold g in
      Alcotest.(check int)
        (Printf.sprintf "%s: cut value at g=%d" name g)
        cold.Min_cut.value warm.Min_cut.value;
      Alcotest.(check (array bool))
        (Printf.sprintf "%s: source side at g=%d" name g)
        cold.Min_cut.source_side warm.Min_cut.source_side)
    gs

let test_parametric_ascending () = check_parametric_sequence "ascending" [ 0; 2; 3; 5; 9; 30 ]

let test_parametric_descending () =
  check_parametric_sequence "descending" [ 30; 9; 5; 3; 2; 0 ]

let test_parametric_zigzag () = check_parametric_sequence "zigzag" [ 0; 30; 4; 11; 4; 0; 8; 30 ]

let prop_parametric_matches_rebuild =
  (* Random gated networks, random probe sequences: the warm-started engine
     must match a from-scratch rebuild at every probe. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      let* links = list_size (int_range 0 20) (triple (int_range 0 7) (int_range 0 7) (int_range 1 9)) in
      let* gates = list_size (int_range 1 8) (triple (int_range 0 7) (int_range 0 5) (int_range 0 12)) in
      let* probes = list_size (int_range 1 12) (int_range 0 40) in
      return (n, links, gates, probes))
  in
  QCheck2.Test.make ~name:"parametric solve matches per-probe rebuild" ~count:300 gen
    (fun (n, links, gates, probes) ->
      let s = n and t = n + 1 in
      let p = Flow.Parametric.create ~nodes:(n + 2) ~source:s ~sink:t in
      for b = 0 to n - 1 do
        Flow.Parametric.add_arc p ~src:s ~dst:b ~cap:15
      done;
      List.iter
        (fun (a, b, w) ->
          let a = a mod n and b = b mod n in
          if a <> b then Flow.Parametric.add_arc p ~src:a ~dst:b ~cap:w)
        links;
      List.iter
        (fun (b, base, offset) -> Flow.Parametric.add_gate p ~src:(b mod n) ~base ~offset)
        gates;
      let rebuild g =
        let net = Flow_network.create ~nodes:(n + 2) in
        for b = 0 to n - 1 do
          ignore (Flow_network.add_arc net ~src:s ~dst:b ~cap:15)
        done;
        List.iter
          (fun (a, b, w) ->
            let a = a mod n and b = b mod n in
            if a <> b then ignore (Flow_network.add_arc net ~src:a ~dst:b ~cap:w))
          links;
        List.iter
          (fun (b, base, offset) ->
            ignore
              (Flow_network.add_arc net ~src:(b mod n) ~dst:t ~cap:(base + max 0 (g - offset))))
          gates;
        Min_cut.compute_max net ~s ~t
      in
      List.for_all
        (fun g ->
          let warm = Flow.Parametric.solve p ~g in
          let cold = rebuild g in
          warm.Min_cut.value = cold.Min_cut.value
          && warm.Min_cut.source_side = cold.Min_cut.source_side)
        probes)

let suite =
  [
    Alcotest.test_case "CLRS max flow" `Quick test_clrs_max_flow;
    Alcotest.test_case "single arc" `Quick test_single_arc;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "parallel paths" `Quick test_parallel_paths;
    Alcotest.test_case "bottleneck" `Quick test_bottleneck;
    Alcotest.test_case "min cut sides" `Quick test_min_cut_sides;
    Alcotest.test_case "cut arcs sum" `Quick test_cut_arcs_sum;
    Alcotest.test_case "compute_max same value" `Quick test_compute_max_same_value;
    Alcotest.test_case "compute_max breaks ties wide" `Quick test_compute_max_breaks_ties_wide;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "send guard" `Quick test_send_guard;
    Alcotest.test_case "negative cap rejected" `Quick test_negative_cap_rejected;
    Alcotest.test_case "long path (explicit-stack DFS)" `Quick test_long_path;
    Alcotest.test_case "grow past 16 arcs, no aliasing" `Quick test_grow_past_16_arcs_no_aliasing;
    Alcotest.test_case "set_cap preserves committed flow" `Quick test_set_cap_preserves_flow;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "parametric ascending" `Quick test_parametric_ascending;
    Alcotest.test_case "parametric descending" `Quick test_parametric_descending;
    Alcotest.test_case "parametric zigzag" `Quick test_parametric_zigzag;
    Helpers.qtest prop_parametric_matches_rebuild;
    Helpers.qtest prop_duality;
    Helpers.qtest prop_cut_separates;
    Helpers.qtest prop_flow_conservation;
    Helpers.qtest prop_max_side_contains_min_side;
    Helpers.qtest prop_max_side_cut_value;
  ]
