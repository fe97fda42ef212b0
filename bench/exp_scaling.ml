(* Table III companion — empirical scaling of the core kernels, plus the
   (w1, w2) ablation on plan diversity that DESIGN.md calls out.

   The complexity table of the paper is analytical; here we measure the
   kernels it is built from on growing inputs so the asymptotic claims can
   be eyeballed: truss decomposition (O(m^1.5)), Dinic on the truss flow
   graphs (near-linear at their shallow depth), and the two DP variants
   (O(|C| b^2) vs O(|C| b + b min(b,|C|)^2 log |C|)). *)

let bench_decomposition () =
  Printf.printf "truss decomposition scaling:\n";
  Printf.printf "%-10s %10s %10s\n" "edges" "time" "us/edge";
  List.iter
    (fun n ->
      let rng = Graphcore.Rng.create 3 in
      let g = Graphcore.Gen.powerlaw_cluster ~rng ~n ~m:6 ~p:0.5 in
      let m = Graphcore.Graph.num_edges g in
      let _, t = Exp_common.time (fun () -> Truss.Decompose.run g) in
      Printf.printf "%-10d %10s %10.2f\n%!" m (Exp_common.fmt_time t.Exp_common.seconds)
        (1e6 *. t.Exp_common.seconds /. float_of_int m))
    (Exp_common.pick ~quick:[ 1000; 4000; 16000 ] ~full:[ 1000; 4000; 16000; 64000 ])

let bench_dinic () =
  Printf.printf "\nDinic max-flow scaling (random layered networks):\n";
  Printf.printf "%-10s %10s\n" "arcs" "time";
  List.iter
    (fun n ->
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
      let _, time = Exp_common.time (fun () -> Flow.Dinic.max_flow net ~s ~t) in
      Printf.printf "%-10d %10s\n%!" (Flow.Flow_network.num_arcs net)
        (Exp_common.fmt_time time.Exp_common.seconds))
    (Exp_common.pick ~quick:[ 100; 1000; 10000 ] ~full:[ 100; 1000; 10000; 100000 ])

let bench_w_ablation () =
  Printf.printf "\n(w1, w2) ablation: distinct min-cut plans found per setting (syracuse56):\n";
  let g = Exp_common.dataset "syracuse56" in
  let k = Exp_common.default_k "syracuse56" in
  let dec = Truss.Decompose.run g in
  match Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k with
  | [] -> print_endline "no component"
  | comp :: _ ->
    let ctx = Maxtruss.Score.make_ctx g ~k in
    let h = Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp in
    let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
    let dag = Maxtruss.Block_dag.build ~h ~dec ~k ~component:comp ~onion in
    Printf.printf "%-10s %10s %14s\n" "(w1,w2)" "plans" "distinct h";
    List.iter
      (fun (w1, w2) ->
        let sels = Maxtruss.Flow_plan.sweep ~dag ~w1 ~w2 ~probes:10 () in
        let hs = List.sort_uniq compare (List.map (fun s -> s.Maxtruss.Flow_plan.h_score) sels) in
        Printf.printf "(%d,%-3d)    %10d %14d\n%!" w1 w2 (List.length sels) (List.length hs))
      [ (1, 1); (1, 10); (2, 1); (1, 100); (10, 1) ]

let bench_dp_scaling () =
  Printf.printf "\nDP scaling on synthetic menus (|C| components, 5 plans each):\n";
  Printf.printf "%-8s %-8s %12s %12s %12s\n" "|C|" "b" "Binary" "Sequential" "Sorted";
  let menu rng =
    let rec build cost score acc n =
      if n = 0 then List.rev acc
      else begin
        let cost = cost + 1 + Graphcore.Rng.int rng 3 in
        let score = score + 1 + Graphcore.Rng.int rng 10 in
        let inserted = List.init cost (fun i -> Graphcore.Edge_key.make (50000 + i) (90000 + i)) in
        build cost score ({ Maxtruss.Plan.inserted; cost; score } :: acc) (n - 1)
      end
    in
    build 0 0 [] 5
  in
  List.iter
    (fun (c, b) ->
      let rng = Graphcore.Rng.create 5 in
      let revenues = Array.init c (fun _ -> menu rng) in
      let _, t1 = Exp_common.time (fun () -> Maxtruss.Dp.binary ~revenues ~budget:b) in
      let _, t2 = Exp_common.time (fun () -> Maxtruss.Dp.sequential ~revenues ~budget:b) in
      let _, t3 = Exp_common.time (fun () -> Maxtruss.Dp.sorted ~revenues ~budget:b) in
      Printf.printf "%-8d %-8d %12s %12s %12s\n%!" c b
        (Exp_common.fmt_time t1.Exp_common.seconds)
        (Exp_common.fmt_time t2.Exp_common.seconds)
        (Exp_common.fmt_time t3.Exp_common.seconds))
    (Exp_common.pick
       ~quick:[ (100, 50); (100, 400); (1000, 50) ]
       ~full:[ (100, 50); (100, 400); (1000, 50); (1000, 400); (4000, 100) ])

(* Domain-scaling ladder: support counting and the decompose that runs it,
   the kernels with a parallel path, at 1, 2 and 4 domains on one fixed
   graph.  Each cell also lands in the --json output as a scalar
   ("scaling/<kernel>_d<d>_s"), which is what the CI scaling-smoke job
   archives to plot the curve over time.  On a single-core host the d>1
   rows measure pool overhead, not speedup — still worth tracking, since
   that overhead is the price every laptop pays. *)
let bench_domains_ladder () =
  Printf.printf "\ndomain scaling (fixed graph, wall time per kernel):\n";
  let rng = Graphcore.Rng.create 6 in
  let n = Exp_common.pick ~quick:4000 ~full:32000 in
  let g = Graphcore.Gen.powerlaw_cluster ~rng ~n ~m:6 ~p:0.5 in
  let csr = Graphcore.Csr.of_graph g in
  let kernels =
    [
      ("support", fun () -> ignore (Truss.Support.all_csr csr));
      ("decompose", fun () -> ignore (Truss.Decompose.run g));
    ]
  in
  let domain_counts = [ 1; 2; 4 ] in
  let saved = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains saved) @@ fun () ->
  Printf.printf "%-12s" "kernel";
  List.iter (fun d -> Printf.printf "%11s" (Printf.sprintf "d=%d" d)) domain_counts;
  print_newline ();
  List.iter
    (fun (name, f) ->
      Printf.printf "%-12s" name;
      List.iter
        (fun d ->
          Par.set_domains d;
          f (); (* warm once so pool spin-up stays out of the cell *)
          let _, t = Exp_common.time f in
          Exp_common.add_scalar (Printf.sprintf "scaling/%s_d%d_s" name d) t.Exp_common.seconds;
          Printf.printf "%11s" (Printf.sprintf "%.3fs" t.Exp_common.seconds))
        domain_counts;
      print_newline ())
    kernels;
  flush stdout

let run () =
  Exp_common.header "Table III companion: kernel scaling and ablations";
  bench_decomposition ();
  bench_dinic ();
  bench_w_ablation ();
  bench_domains_ladder ();
  bench_dp_scaling ();
  print_newline ()
