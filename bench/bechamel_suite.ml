(* Bechamel micro-benchmarks: one kernel — a baseline name and one run —
   per paper artifact, each exercising the computational core of that
   table/figure at a miniature scale so the statistics converge in
   seconds.  The full-scale experiment
   harness (exp_*.ml) prints the actual paper-shaped tables; this suite
   measures the kernels' per-iteration cost.

   The kernels/ group times the CSR snapshot kernels (Graphcore.Csr) on
   the largest quick-grid registry dataset, so `--json` runs leave a
   machine-readable perf trail (BENCH_kernels.json) future changes can
   diff against.  The hashtable reference engines live in the test suite
   as oracles and are not timed. *)

open Bechamel
open Toolkit

let small_graph =
  lazy
    (let rng = Graphcore.Rng.create 21 in
     let base = Graphcore.Gen.powerlaw_cluster ~rng ~n:300 ~m:5 ~p:0.6 in
     Graphcore.Gen.with_communities ~rng ~base ~communities:8 ~size_min:8 ~size_max:12
       ~drop:0.3)

let k = 6

(* Table IV kernel: one full PCFR run on a small graph. *)
let test_table4 =
  ( "table4/pcfr_small",
    fun () ->
      let g = Lazy.force small_graph in
      ignore (Maxtruss.Pcfr.pcfr ~g ~k ~budget:20 ()))

(* Fig. 4/5 kernel: a CBTM run (the baseline sweeps repeat this shape). *)
let test_fig45 =
  ( "fig4-5/cbtm_small",
    fun () ->
      let g = Lazy.force small_graph in
      ignore (Maxtruss.Baselines.cbtm ~g ~k ~budget:20))

(* Fig. 6(a) kernel: random interpolation of one component. *)
let test_fig6a =
  ( "fig6a/random_interp",
    fun () ->
      let g = Lazy.force small_graph in
      let dec = Truss.Decompose.run g in
      match Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k with
      | [] -> ()
      | comp :: _ ->
        let ctx = Maxtruss.Score.make_ctx g ~k in
        let lctx = Maxtruss.Score.local_ctx ctx ~component:comp in
        ignore
          (Maxtruss.Random_interp.interpolate ~rng:(Graphcore.Rng.create 3) ~ctx:lctx
             ~component:comp ~budget:10 ~repeats:10 ~forbidden:g ()))

(* Fig. 6(b) kernel: onion peel + DAG construction. *)
let test_fig6b =
  ( "fig6b/block_dag",
    fun () ->
      let g = Lazy.force small_graph in
      let dec = Truss.Decompose.run g in
      match Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k with
      | [] -> ()
      | comp :: _ ->
        let ctx = Maxtruss.Score.make_ctx g ~k in
        let h =
          Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp
        in
        let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
        ignore (Maxtruss.Block_dag.build ~h ~dec ~k ~component:comp ~onion))

(* Table V / Fig. 7 kernels: the three DPs on a fixed synthetic menu set. *)
let menus =
  lazy
    (let rng = Graphcore.Rng.create 9 in
     Array.init 200 (fun _ ->
         let rec build cost score acc n =
           if n = 0 then List.rev acc
           else begin
             let cost = cost + 1 + Graphcore.Rng.int rng 3 in
             let score = score + 1 + Graphcore.Rng.int rng 8 in
             let inserted =
               List.init cost (fun i -> Graphcore.Edge_key.make (40000 + i) (80000 + i))
             in
             build cost score ({ Maxtruss.Plan.inserted; cost; score } :: acc) (n - 1)
           end
         in
         build 0 0 [] 4))

let test_table5_sequential =
  ( "table5/sequential_dp",
    fun () ->
      ignore (Maxtruss.Dp.sequential ~revenues:(Lazy.force menus) ~budget:100))

let test_table5_sorted =
  ( "table5/sorted_dp",
    fun () ->
      ignore (Maxtruss.Dp.sorted ~revenues:(Lazy.force menus) ~budget:100))

let test_fig7_binary =
  ( "fig7/binary_dp",
    fun () ->
      ignore (Maxtruss.Dp.binary ~revenues:(Lazy.force menus) ~budget:100))

(* Fig. 8 kernel: full conversion of one component. *)
let test_fig8 =
  ( "fig8/complete_conversion",
    fun () ->
      let g = Lazy.force small_graph in
      let dec = Truss.Decompose.run g in
      match Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k with
      | [] -> ()
      | comp :: _ ->
        let ctx = Maxtruss.Score.make_ctx g ~k in
        ignore (Maxtruss.Convert.convert ~ctx ~target:comp ()))

(* --- CSR kernel layer vs. hashtable reference ----------------------------- *)

(* Largest quick-grid registry dataset. *)
let kernel_dataset = "gowalla"

let kernel_graph = lazy ((Datasets.Registry.find kernel_dataset).Datasets.Registry.build ())
let kernel_csr = lazy (Graphcore.Csr.of_graph (Lazy.force kernel_graph))

(* Onion fixture: first (k-1)-class component of the kernel dataset at its
   default k, plus the local peel subgraph [h]. *)
let kernel_onion =
  lazy
    (let g = Lazy.force kernel_graph in
     let kd = (Datasets.Registry.find kernel_dataset).Datasets.Registry.default_k in
     let dec = Truss.Decompose.run g in
     match Truss.Connectivity.components ~g ~dec ~lo:(kd - 1) ~hi:kd with
     | [] -> None
     | comp :: _ ->
       let backdrop = Truss.Decompose.truss_edge_table dec kd in
       Some (Truss.Onion.build_h ~g ~backdrop ~candidates:comp, kd, comp))

(* Block DAG of the onion fixture, shared by the flow-sweep kernels. *)
let kernel_dag =
  lazy
    (match Lazy.force kernel_onion with
    | None -> None
    | Some (h, kd, comp) ->
      let g = Lazy.force kernel_graph in
      let dec = Truss.Decompose.run g in
      let onion = Truss.Onion.peel ~h ~k:kd ~candidates:comp () in
      Some (Maxtruss.Block_dag.build ~h ~dec ~k:kd ~component:comp ~onion))

(* Synthetic layered flow network (same generator as exp_scaling's Dinic
   bench) for the raw CSR max-flow kernel: reset + solve per run, nothing
   rebuilt in the timed region. *)
let kernel_dinic_net =
  lazy
    (let n = 2000 in
     let rng = Graphcore.Rng.create 4 in
     let net = Flow.Flow_network.create ~nodes:(n + 2) in
     let s = n and t = n + 1 in
     for b = 0 to n - 1 do
       ignore (Flow.Flow_network.add_arc net ~src:s ~dst:b ~cap:(1 + Graphcore.Rng.int rng 50));
       ignore (Flow.Flow_network.add_arc net ~src:b ~dst:t ~cap:(1 + Graphcore.Rng.int rng 50))
     done;
     for _ = 1 to 3 * n do
       let a = Graphcore.Rng.int rng n and b = Graphcore.Rng.int rng n in
       if a <> b then
         ignore (Flow.Flow_network.add_arc net ~src:a ~dst:b ~cap:(1 + Graphcore.Rng.int rng 10))
     done;
     (net, s, t))

let kname kernel = Printf.sprintf "kernels/%s@%s" kernel kernel_dataset

let test_csr_build =
  ( kname "csr_build",
    fun () -> ignore (Graphcore.Csr.of_graph (Lazy.force kernel_graph)))

let test_csr_support =
  ( kname "csr_support",
    fun () -> ignore (Truss.Support.all_csr (Lazy.force kernel_csr)))

let test_csr_decompose =
  ( kname "csr_decompose",
    fun () ->
      ignore (Truss.Decompose.run (Lazy.force kernel_graph)))

let test_csr_onion =
  ( kname "csr_onion",
    fun () ->
      match Lazy.force kernel_onion with
      | None -> ()
      | Some (h, kd, comp) ->
        (* the peel never mutates h, so no defensive copy *)
        ignore (Truss.Onion.peel ~h ~k:kd ~candidates:comp ()))

(* Scoring fixture: the five largest (k-1)-class components of the kernel
   dataset at its default k, each with its local scoring context and the
   plan that fully converts it. *)
let kernel_score_plans =
  lazy
    (let g = Lazy.force kernel_graph in
     let kd = (Datasets.Registry.find kernel_dataset).Datasets.Registry.default_k in
     let dec = Truss.Decompose.run g in
     let comps =
       Truss.Connectivity.components ~g ~dec ~lo:(kd - 1) ~hi:kd
       |> List.stable_sort (fun a b -> Int.compare (List.length b) (List.length a))
       |> List.filteri (fun i _ -> i < 5)
     in
     let ctx = Maxtruss.Score.make_ctx g ~k:kd in
     List.map
       (fun comp ->
         ( Maxtruss.Score.local_ctx ctx ~component:comp,
           (Maxtruss.Convert.convert ~ctx ~target:comp ()).Maxtruss.Convert.plan ))
       comps)

(* PCFR's inner scoring loop: each full-conversion plan scored on its
   component's frame (the frames are built once, outside the timed region). *)
let test_score_local =
  ( kname "score_local",
    fun () ->
      List.iter
        (fun (lctx, plan) -> ignore (Maxtruss.Score.score lctx plan))
        (Lazy.force kernel_score_plans))

(* Maintenance fixture: 20 fixed churn batches against the kernel
   dataset's snapshot, shaped like the service's `mutate` stream — two
   random insertions, two wedge closures and three deletions each, every
   batch normalized as the mutation log would (insertions absent,
   deletions present, all distinct) and applied to the same base. *)
let kernel_batches =
  lazy
    (let open Graphcore in
     let g = Lazy.force kernel_graph in
     let rng = Rng.create 17 in
     let edges = Graph.edge_array g in
     let nodes = Array.map (fun key -> fst (Edge_key.endpoints key)) edges in
     let neighbor u = Rng.pick rng (Array.of_list (Graph.neighbors g u)) in
     let batch () =
       let chosen = Hashtbl.create 8 in
       let take u v =
         let fresh = u <> v && not (Hashtbl.mem chosen (Edge_key.make u v)) in
         if fresh then Hashtbl.replace chosen (Edge_key.make u v) ();
         fresh
       in
       let rec insertion ~wedge =
         let u = Rng.pick rng nodes in
         let v = if wedge then neighbor (neighbor u) else Rng.pick rng nodes in
         if (not (Graph.mem_edge g u v)) && take u v then (min u v, max u v)
         else insertion ~wedge
       in
       let rec deletion () =
         let u, v = Edge_key.endpoints (Rng.pick rng edges) in
         if take u v then (u, v) else deletion ()
       in
       let inserted = List.map (fun wedge -> insertion ~wedge) [ false; false; true; true ] in
       (inserted, List.init 3 (fun _ -> deletion ()))
     in
     let dec = Truss.Decompose.of_csr (Lazy.force kernel_csr) in
     (dec, List.init 20 (fun _ -> batch ())))

(* The daemon's incremental `mutate` kernel: every fixture batch through
   the batch maintenance on the shared snapshot. *)
let test_maintain_batch =
  ( kname "maintain_batch",
    fun () ->
      let dec, batches = Lazy.force kernel_batches in
      List.iter
        (fun (inserted, deleted) ->
          ignore
            (Truss.Maintain.batch_update_csr ~csr:(Lazy.force kernel_csr)
               ~tau:(Truss.Decompose.trussness_opt dec) ~kmax:(Truss.Decompose.kmax dec)
               ~inserted ~deleted))
        batches)

(* Parametric g-sweep vs the per-probe rebuild baseline on the fixture DAG.
   Same probes/weights as PCFR's default sweep; the two engines are
   bit-identical in output, so this pair is a pure engine-cost comparison
   (the warm kernel is the perf-gate artifact, the rebuild kernel the
   reference it must beat). *)
let test_flow_sweep_warm =
  ( kname "flow_sweep_warm",
    fun () ->
      match Lazy.force kernel_dag with
      | None -> ()
      | Some dag ->
        ignore (Maxtruss.Flow_plan.sweep ~impl:`Parametric ~dag ~w1:1 ~w2:1 ~probes:10 ()))

let test_flow_sweep_rebuild =
  ( kname "flow_sweep_rebuild",
    fun () ->
      match Lazy.force kernel_dag with
      | None -> ()
      | Some dag ->
        ignore (Maxtruss.Flow_plan.sweep ~impl:`Rebuild ~dag ~w1:1 ~w2:1 ~probes:10 ()))

(* Raw CSR Dinic: one zero-flow max-flow solve on a prebuilt 2k-node layered
   network (reset is a capacity blit, negligible next to the solve). *)
let test_dinic_csr =
  ( "kernels/dinic_csr@layered2k",
    fun () ->
      let net, s, t = Lazy.force kernel_dinic_net in
      Flow.Flow_network.reset net;
      ignore (Flow.Dinic.max_flow net ~s ~t))

(* Service replay kernel: a fixed mixed workload — five reads plus two small
   mutation batches — against a store seeded from a prebuilt epoch.  The
   base epoch is shared across runs (mutations publish fresh epochs built
   from copies), so the timed region is request handling plus two
   incremental maintenance passes, not the initial decomposition. *)
let kernel_serve_epoch = lazy (Service.Epoch.create (Lazy.force small_graph))

let test_serve_replay =
  ( "kernels/serve_replay@small",
    fun () ->
      let store = Service.Store.create (Lazy.force kernel_serve_epoch) in
      let epoch = Service.Store.current store in
      let read req = ignore (Service.Request.handle_read ~epoch req) in
      read Service.Request.Decompose;
      read (Service.Request.Stats { detail = false });
      read (Service.Request.Truss_query { k; limit = Some 50 });
      read (Service.Request.Onion { k; limit = Some 20 });
      read (Service.Request.Trussness [ (0, 1); (1, 2); (2, 3) ]);
      let edges = Graphcore.Graph.edge_array (Lazy.force small_graph) in
      let del i =
        let u, v = Graphcore.Edge_key.endpoints edges.(i) in
        Service.Mutation_log.Delete (u, v)
      in
      let o1 =
        Service.Mutation_log.apply store
          [ del 0; del 7; Service.Mutation_log.Insert (1000, 1001) ]
      in
      ignore
        (Service.Request.handle_read ~epoch:o1.Service.Mutation_log.epoch
           Service.Request.Decompose);
      ignore
        (Service.Mutation_log.apply store
           [ del 13; Service.Mutation_log.Insert (1001, 1002) ]))

(* The two CSR kernels that fork — support counting, and the decompose
   whose support pass it is — under a 2-domain pool.  Kept last in the
   suite so the pool spin-up never perturbs the sequential measurements;
   {!benchmark} restores the previous domain count once the suite
   finishes.  [Par.set_domains] is a cheap no-op after the
   first call, so it adds nothing measurable to the per-run cost. *)
let test_csr_support_par2 =
  ( kname "csr_support_par2",
    fun () ->
      Par.set_domains 2;
      ignore (Truss.Support.all_csr (Lazy.force kernel_csr)))

let test_csr_decompose_par2 =
  ( kname "csr_decompose_par2",
    fun () ->
      Par.set_domains 2;
      ignore (Truss.Decompose.run (Lazy.force kernel_graph)))

(* One kernel's measurement: Bechamel's raw linear-regression samples,
   normalized per run, feed the median/MAD time statistics
   (Perf_baseline) while the OLS estimate keeps the familiar printed
   number and the legacy --json "ns_per_run" value.  Allocation is counted
   apart from the samples, over warm runs, with {!Obs.allocated_words}:
   Bechamel's major_allocated moves only at major collections, so its
   per-run figure depended on when the major GC happened to run. *)
type kernel_run = {
  kr_name : string;
  kr_ns_est : float;  (* Bechamel OLS ns/run estimate *)
  kr_ns : float array;  (* per-sample wall time, ns/run *)
  kr_alloc_w : float array;  (* words allocated by each of three warm runs *)
}

let per_run raws ~f =
  Array.to_list raws
  |> List.filter_map (fun raw ->
         let runs = Measurement_raw.run raw in
         if runs > 0. then Some (f raw /. runs) else None)
  |> Array.of_list

let warm_alloc_w run =
  Array.init 3 (fun _ ->
      let w0 = Obs.allocated_words () in
      run ();
      Obs.allocated_words () -. w0)

(* [quota_s] bounds the sampling time per kernel.  The 1s default keeps the
   interactive run snappy; baseline recording passes a larger quota so even
   the slowest kernel (csr_decompose, ~0.1s/run) collects the >= 5 samples
   the median/MAD statistics need (samples ramp linearly in run count, so
   N samples cost ~N*(N+1)/2 runs). *)
let benchmark ?(quota_s = 1.0) () =
  let kernels =
    [
      test_table4;
      test_fig45;
      test_fig6a;
      test_fig6b;
      test_table5_sequential;
      test_table5_sorted;
      test_fig7_binary;
      test_fig8;
      test_csr_build;
      test_csr_support;
      test_csr_decompose;
      test_csr_onion;
      test_score_local;
      test_maintain_batch;
      test_flow_sweep_warm;
      test_flow_sweep_rebuild;
      test_dinic_csr;
      test_serve_replay;
      test_csr_support_par2;
      test_csr_decompose_par2;
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota_s) ~kde:(Some 100) () in
  let saved_domains = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains saved_domains) @@ fun () ->
  List.map
    (fun (name, run) ->
      let results =
        Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make ~name (Staged.stage run))
      in
      let result = Hashtbl.find results name in
      let ns = per_run result.Benchmark.lr ~f:(Measurement_raw.get ~label:"monotonic-clock") in
      let alloc_w = warm_alloc_w run in
      let stats =
        Analyze.one (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock result
      in
      let est =
        match Analyze.OLS.estimates stats with
        | Some [ est ] -> est
        | _ -> Perf_baseline.median ns
      in
      Printf.printf "%-34s %14.0f ns/run  (median %.0f +- %.0f mad, %d samples, %.0fw/run)\n%!"
        name est (Perf_baseline.median ns) (Perf_baseline.mad ns) (Array.length ns)
        (Perf_baseline.median alloc_w);
      { kr_name = name; kr_ns_est = est; kr_ns = ns; kr_alloc_w = alloc_w })
    kernels
