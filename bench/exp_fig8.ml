(* Figure 8 — case study on the Syracuse56 stand-in: for the largest
   candidate component at several truss levels, contrast full conversion
   (CBTM style: convert every edge, paying for every unstable one) with
   the best partial conversion plan PCFR's min-cut sweep finds.

   Expected shape (paper): at the showcased component the partial plan's
   conversion ratio (edges converted per edge inserted) is an order of
   magnitude above full conversion's.  Which component shows the starkest
   contrast depends on the graph — the harness scans a few levels and
   highlights the best case, mirroring the paper's hand-picked example. *)

type case = {
  k : int;
  comp_edges : int;
  unstable : int;
  full_cost : int;
  full_score : int;
  part_cost : int;
  part_score : int;
}

let ratio cost score = if cost = 0 then 0.0 else float_of_int score /. float_of_int cost

let study g dec k =
  match Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k with
  | [] -> None
  | comp :: _ ->
    let ctx = Maxtruss.Score.make_ctx g ~k in
    let lctx = Maxtruss.Score.local_ctx ctx ~component:comp in
    let h = Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp in
    let sup = Maxtruss.Convert.csup ~h:(Graphcore.Graph.copy h) comp in
    let unstable = Hashtbl.fold (fun _ s acc -> if s < k - 2 then acc + 1 else acc) sup 0 in
    let full = Maxtruss.Convert.convert ~ctx ~target:comp () in
    let full_cost = List.length full.Maxtruss.Convert.plan in
    let full_score = Maxtruss.Score.score lctx full.Maxtruss.Convert.plan in
    let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
    let dag = Maxtruss.Block_dag.build ~h ~dec ~k ~component:comp ~onion in
    let best = ref None in
    List.iter
      (fun (w1, w2) ->
        List.iter
          (fun sel ->
            let target = Maxtruss.Block_dag.edges_of_blocks dag sel.Maxtruss.Flow_plan.blocks in
            if target <> [] && List.length target < List.length comp then begin
              let conv = Maxtruss.Convert.convert ~ctx ~target () in
              let cost = List.length conv.Maxtruss.Convert.plan in
              if cost > 0 then begin
                let score = Maxtruss.Score.score lctx conv.Maxtruss.Convert.plan in
                match !best with
                | Some (c, s) when ratio c s >= ratio cost score -> ()
                | _ -> best := Some (cost, score)
              end
            end)
          (Maxtruss.Flow_plan.sweep ~dag ~w1 ~w2 ~probes:10 ()))
      [ (1, 1); (1, 10) ];
    Option.map
      (fun (part_cost, part_score) ->
        { k; comp_edges = List.length comp; unstable; full_cost; full_score; part_cost;
          part_score })
      !best

let run () =
  Exp_common.header "Exp-V / Fig. 8: case study conversion ratios (syracuse56)";
  let g = Exp_common.dataset "syracuse56" in
  let dec = Truss.Decompose.run g in
  let ks = Exp_common.pick ~quick:[ 8; 12; 14 ] ~full:[ 8; 10; 12; 14; 16 ] in
  let cases = List.filter_map (study g dec) ks in
  Printf.printf "%-4s %8s %9s | %18s %8s | %18s %8s\n" "k" "|E_c|" "unstable" "full (ins->conv)"
    "ratio" "partial (ins->conv)" "ratio";
  Exp_common.hline 92;
  List.iter
    (fun c ->
      Printf.printf "%-4d %8d %9d | %8d -> %6d %8.1f | %8d -> %6d %8.1f\n%!" c.k c.comp_edges
        c.unstable c.full_cost c.full_score
        (ratio c.full_cost c.full_score)
        c.part_cost c.part_score
        (ratio c.part_cost c.part_score))
    cases;
  (match
     List.sort
       (fun a b ->
         compare
           (ratio b.part_cost b.part_score /. max 0.01 (ratio b.full_cost b.full_score))
           (ratio a.part_cost a.part_score /. max 0.01 (ratio a.full_cost a.full_score)))
       cases
   with
  | best :: _ ->
    Printf.printf
      "\nshowcase (k = %d): partial conversion achieves %.1fx the conversion ratio of full\n"
      best.k
      (ratio best.part_cost best.part_score /. max 0.01 (ratio best.full_cost best.full_score))
  | [] -> ());
  print_newline ()
