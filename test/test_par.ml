(* Par: the deterministic fork/join pool — result ordering, exception
   propagation, nested-region fallback — plus the contracts its callers
   rely on: bit-identical support/trussness/onion/PCFR results at any
   domain count, the peels equal to the hashtable oracles on a fixture with
   thousand-edge rounds, exact Obs counters under a 4-domain hammer, and
   the disabled-Obs path staying allocation-free with the pool live. *)

open Graphcore

(* Run [f] under [n] domains, restoring the previous level afterwards so
   the suite's other tests keep whatever MAXTRUSS_DOMAINS selected. *)
let with_domains n f =
  let saved = Par.domains () in
  Par.set_domains n;
  Fun.protect ~finally:(fun () -> Par.set_domains saved) f

(* --- fork/join semantics --- *)

let test_tasks_order () =
  with_domains 4 @@ fun () ->
  let fs = Array.init 23 (fun i () -> (i * 7) + 1) in
  Alcotest.(check (array int))
    "results land at their task index"
    (Array.init 23 (fun i -> (i * 7) + 1))
    (Par.tasks fs)

let test_parallel_map_order () =
  with_domains 4 @@ fun () ->
  let xs = Array.init 17 (fun i -> i) in
  Alcotest.(check (array int))
    "parallel_map preserves order" (Array.map (fun x -> x * x) xs)
    (Par.parallel_map (fun x -> x * x) xs);
  let l = List.init 11 string_of_int in
  Alcotest.(check (list string)) "map_list preserves order" l (Par.map_list Fun.id l)

exception Boom of int

let test_exception_propagation () =
  with_domains 4 @@ fun () ->
  let fs =
    Array.init 8 (fun i () -> if i = 2 || i = 5 then raise (Boom i) else i)
  in
  (match Par.tasks fs with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom i ->
    Alcotest.(check int) "lowest-indexed task's exception wins" 2 i);
  (* the pool survives a raising region *)
  Alcotest.(check (array int)) "pool usable after exception" [| 0; 1; 2 |]
    (Par.tasks (Array.init 3 (fun i () -> i)))

let test_nested_region_falls_back () =
  with_domains 4 @@ fun () ->
  (* inner regions (from workers and from the busy main domain) must degrade
     to sequential execution instead of deadlocking *)
  let results =
    Par.tasks
      (Array.init 6 (fun i () ->
           Array.fold_left ( + ) 0 (Par.tasks (Array.init 5 (fun j () -> (10 * i) + j)))))
  in
  Alcotest.(check (array int))
    "nested results correct"
    (Array.init 6 (fun i -> (50 * i) + 10))
    results

let test_domains_auto () =
  let saved = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains saved) @@ fun () ->
  Par.set_domains 0;
  let d = Par.domains () in
  Alcotest.(check bool)
    (Printf.sprintf "auto-sized pool in [1, 64] (got %d)" d)
    true
    (d >= 1 && d <= 64)

(* --- sequential/parallel agreement on the truss kernels --- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Edge_key.compare a b)

let kernel_fingerprint g =
  let csr = Csr.of_graph g in
  let sup = Array.to_list (Truss.Support.all_csr csr) in
  let dec = Truss.Decompose.run g in
  let truss = ref [] in
  Truss.Decompose.iter dec (fun key k -> truss := (key, k) :: !truss);
  let truss = List.sort (fun (a, _) (b, _) -> Edge_key.compare a b) !truss in
  let candidates =
    let acc = ref [] in
    Graph.iter_edges g (fun u v -> acc := Edge_key.make u v :: !acc);
    List.sort Edge_key.compare !acc
  in
  let onion = Truss.Onion.peel ~h:g ~k:4 ~candidates () in
  (sup, truss, sorted_bindings onion.Truss.Onion.layer, onion.Truss.Onion.max_layer)

let prop_kernel_agreement =
  QCheck2.Test.make ~name:"support/trussness/onion identical at 1 vs 3/4/5 domains"
    ~count:30
    (Helpers.random_graph_gen ~max_n:14 ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let seq = with_domains 1 @@ fun () -> kernel_fingerprint (Graph.of_edges edges) in
      List.for_all
        (fun d ->
          (with_domains d @@ fun () -> kernel_fingerprint (Graph.of_edges edges)) = seq)
        [ 3; 4; 5 ])

(* Large enough to cross the support scatter's sequential cutoff
   (m >= 4096), so the 4-domain run genuinely forks. *)
let big_graph () =
  let rng = Rng.create 77 in
  Gen.powerlaw_cluster ~rng ~n:1500 ~m:4 ~p:0.4

let test_big_graph_agreement () =
  let g = big_graph () in
  Alcotest.(check bool) "fixture crosses the parallel cutoff" true
    (Graph.num_edges g > 4096);
  let seq = with_domains 1 @@ fun () -> kernel_fingerprint (big_graph ()) in
  let par = with_domains 4 @@ fun () -> kernel_fingerprint (big_graph ()) in
  Alcotest.(check bool) "fingerprints identical" true (seq = par)

(* The peels against the hashtable oracles of Ref_truss, on a graph whose
   first onion round removes thousands of edges at once — far beyond the
   small graphs of the CSR agreement tests. *)
let test_big_graph_decompose_oracle () =
  let g = big_graph () in
  let reference, reference_kmax = Ref_truss.decompose g in
  let dec = Truss.Decompose.run g in
  Alcotest.(check int) "kmax" reference_kmax (Truss.Decompose.kmax dec);
  let tau = Hashtbl.create (Graph.num_edges g) in
  Truss.Decompose.iter dec (Hashtbl.replace tau);
  Alcotest.(check (list (pair int int)))
    "trussness" (sorted_bindings reference) (sorted_bindings tau)

let test_big_graph_onion_oracle () =
  let g = big_graph () in
  let candidates = Array.to_list (Graph.edge_array g) in
  let onion = Truss.Onion.peel ~h:g ~k:4 ~candidates () in
  let oracle = Ref_truss.onion_peel ~h:(Graph.copy g) ~k:4 ~candidates in
  let first_round =
    Hashtbl.fold (fun _ l n -> if l = 1 then n + 1 else n) onion.Truss.Onion.layer 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "first round removes over 1,024 edges (got %d)" first_round)
    true (first_round > 1024);
  Alcotest.(check int) "rounds" oracle.Truss.Onion.rounds onion.Truss.Onion.rounds;
  Alcotest.(check int) "max_layer" oracle.Truss.Onion.max_layer onion.Truss.Onion.max_layer;
  Alcotest.(check (list (pair int int)))
    "layers" (sorted_bindings oracle.Truss.Onion.layer) (sorted_bindings onion.Truss.Onion.layer)

(* Skewed fixture: heavier per-node attachment and stronger clustering than
   the big-graph fixture, so the support scatter's degree-balanced vertex
   ranges carry uneven triangle counts.  Odd domain counts make the range
   boundaries land differently from the 4-domain run above. *)
let test_skewed_graph_agreement () =
  let build () =
    let rng = Rng.create 99 in
    Gen.powerlaw_cluster ~rng ~n:900 ~m:8 ~p:0.9
  in
  let g = build () in
  Alcotest.(check bool) "fixture crosses the parallel cutoff" true
    (Graph.num_edges g > 4096);
  let seq = with_domains 1 @@ fun () -> kernel_fingerprint (build ()) in
  List.iter
    (fun d ->
      let par = with_domains d @@ fun () -> kernel_fingerprint (build ()) in
      Alcotest.(check bool)
        (Printf.sprintf "fingerprints identical at %d domains" d)
        true (par = seq))
    [ 3; 5 ]

(* Support counting is the part of decompose that runs on the pool:
   par.tasks counts forked regions, so a zero here means the scatter
   silently fell back to sequential and the agreement tests above compare
   the sequential code with itself. *)
let test_support_count_runs_on_pool () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  with_domains 3 @@ fun () ->
  let rng = Rng.create 7 in
  let g = Gen.powerlaw_cluster ~rng ~n:1500 ~m:4 ~p:0.4 in
  ignore (Truss.Decompose.run g);
  (match List.assoc_opt "par.tasks" (Obs.counters ()) with
  | Some n ->
    Alcotest.(check bool) (Printf.sprintf "par.tasks > 0 (got %d)" n) true (n > 0)
  | None -> Alcotest.fail "par.tasks not registered");
  Alcotest.(check (option int))
    "par.pool_size gauge reflects the pool" (Some 3)
    (match List.assoc_opt "par.pool_size" (Obs.gauges ()) with
    | Some v -> Some (int_of_float v)
    | None -> None)

let outcome_fingerprint (r : Maxtruss.Pcfr.result) =
  ( r.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.score,
    r.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted,
    List.map
      (fun (l : Maxtruss.Pcfr.level_stat) -> (l.h, l.components, l.plans, l.inserted, l.gain))
      r.Maxtruss.Pcfr.levels )

let prop_pcfr_agreement =
  QCheck2.Test.make ~name:"PCFR plans and scores identical at 1 vs 3/4/5 domains"
    ~count:8
    (Helpers.clustered_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let run () = Maxtruss.Pcfr.pcfr ~seed:11 ~g:(Graph.of_edges edges) ~k:4 ~budget:6 () in
      let seq = with_domains 1 @@ fun () -> outcome_fingerprint (run ()) in
      List.for_all
        (fun d -> (with_domains d @@ fun () -> outcome_fingerprint (run ())) = seq)
        [ 3; 4; 5 ])

(* --- Obs under domains --- *)

let test_counter_hammer () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  with_domains 4 @@ fun () ->
  let c = Obs.Counter.make "par.hammer" in
  let tasks = 8 and per = 50_000 in
  ignore
    (Par.tasks
       (Array.init tasks (fun t () ->
            for i = 1 to per do
              if i land 1 = 0 then Obs.Counter.incr c else Obs.Counter.add c 1
            done;
            t)));
  Alcotest.(check int) "no lost increments across domains" (tasks * per)
    (Obs.Counter.value c);
  Alcotest.(check (option int))
    "registry agrees" (Some (tasks * per))
    (List.assoc_opt "par.hammer" (Obs.counters ()))

let test_disabled_alloc_free_with_pool () =
  Obs.reset ();
  Obs.set_enabled false;
  with_domains 4 @@ fun () ->
  (* spin the pool up so worker domains are parked but alive *)
  ignore (Par.tasks (Array.init 8 (fun i () -> i)));
  let c = Obs.Counter.make "par.disabled" in
  let gauge = Obs.Gauge.make "par.disabled_gauge" in
  let iters = 200_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    Obs.Counter.add c 3;
    Obs.Gauge.set gauge 1.5;
    let sp = Obs.Span.enter "par.noop" in
    Obs.Span.exit sp
  done;
  let delta = Gc.minor_words () -. before in
  (* zero words per iteration; the slack only covers the measurement. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled hot path allocates nothing (%.0fw for %d iters)" delta iters)
    true
    (delta < 10_000.);
  Alcotest.(check int) "counter never moved" 0 (Obs.Counter.value c)

(* Counters measure the work, not the pool: a traced sweep on the main
   domain and a traced PCFR run (whose per-component phases fan out over
   the pool) leave the same counter totals at 1 and 4 domains.  Only the
   pool's own [par.*] bookkeeping may differ. *)
let test_counters_independent_of_pool () =
  let counters_at d f =
    with_domains d @@ fun () ->
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
    @@ fun () ->
    f ();
    List.filter (fun (name, _) -> not (String.starts_with ~prefix:"par." name)) (Obs.counters ())
  in
  let dag = Helpers.fig1_dag () in
  let g = (Datasets.Registry.find "gowalla-sample").Datasets.Registry.build () in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list (pair string int)))
        (name ^ ": counters at 1 vs 4 domains")
        (counters_at 1 f) (counters_at 4 f))
    [
      ( "Flow_plan.sweep",
        fun () -> ignore (Maxtruss.Flow_plan.sweep ~dag ~w1:1 ~w2:10 ~probes:10 ()) );
      ("Pcfr.pcfr", fun () -> ignore (Maxtruss.Pcfr.pcfr ~seed:1 ~g ~k:6 ~budget:30 ()));
    ]

let suite =
  [
    (* fork/join semantics *)
    Alcotest.test_case "tasks result order" `Quick test_tasks_order;
    Alcotest.test_case "parallel_map/map_list order" `Quick test_parallel_map_order;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested regions fall back" `Quick test_nested_region_falls_back;
    (* Obs under domains *)
    Alcotest.test_case "4-domain counter hammer" `Quick test_counter_hammer;
    Alcotest.test_case "disabled obs allocation-free with pool live" `Quick
      test_disabled_alloc_free_with_pool;
    Alcotest.test_case "counters independent of pool size" `Quick
      test_counters_independent_of_pool;
    (* the kernels: pool use and oracles *)
    Alcotest.test_case "decompose's support counting forks the pool" `Quick
      test_support_count_runs_on_pool;
    Alcotest.test_case "big-graph decompose equals the oracle" `Quick
      test_big_graph_decompose_oracle;
    Alcotest.test_case "big-graph onion equals the oracle" `Quick test_big_graph_onion_oracle;
    (* pool sizing and agreement across sizes *)
    Helpers.qtest prop_kernel_agreement;
    Helpers.qtest prop_pcfr_agreement;
    Alcotest.test_case "set_domains 0 auto-sizes" `Quick test_domains_auto;
    Alcotest.test_case "skewed-graph agreement (1 vs 3/5 domains)" `Quick
      test_skewed_graph_agreement;
    Alcotest.test_case "big-graph agreement (1 vs 4 domains)" `Quick
      test_big_graph_agreement;
  ]
