open Graphcore

type selection = { g_param : int; blocks : int list; h_score : int; cut_value : int }

let c_probes = Obs.Counter.make "flow_plan.g_probes"

let c_selections = Obs.Counter.make "flow_plan.selections"

let c_variants = Obs.Counter.make "flow_plan.leaf_drop_variants"

let g_max ~dag ~w1 ~w2 =
  (2 * dag.Block_dag.total_link_weight)
  + (w1 * dag.Block_dag.max_layer)
  + (w2 * dag.Block_dag.max_block_size)

let selection_of_cut ~dag ~g (cut : Flow.Min_cut.t) =
  let blocks = ref [] and h = ref 0 in
  for b = dag.Block_dag.n_blocks - 1 downto 0 do
    if cut.Flow.Min_cut.source_side.(b) then begin
      blocks := b :: !blocks;
      h := !h + Array.length dag.Block_dag.edges_of.(b)
    end
  done;
  { g_param = g; blocks = !blocks; h_score = !h; cut_value = cut.Flow.Min_cut.value }

let gate_offset ~dag ~w1 ~w2 b =
  (w1 * dag.Block_dag.layer.(b))
  + (w2 * Array.length dag.Block_dag.edges_of.(b))
  + dag.Block_dag.out_weight.(b)

let min_cut_selection ~dag ~w1 ~w2 ~g =
  let open Block_dag in
  let n = dag.n_blocks in
  let s = n and t = n + 1 in
  let net = Flow.Flow_network.create ~nodes:(n + 2) in
  let q = dag.total_link_weight in
  for b = 0 to n - 1 do
    ignore (Flow.Flow_network.add_arc net ~src:s ~dst:b ~cap:q);
    let cap = dag.base_sink.(b) + max 0 (g - gate_offset ~dag ~w1 ~w2 b) in
    if cap > 0 then ignore (Flow.Flow_network.add_arc net ~src:b ~dst:t ~cap)
  done;
  Array.iter
    (fun (src, dst, w) -> ignore (Flow.Flow_network.add_arc net ~src ~dst ~cap:w))
    dag.links;
  let cut = Flow.Min_cut.compute_max net ~s ~t in
  selection_of_cut ~dag ~g cut

(* One parametric network per (dag, w1, w2) sweep: source and link arcs are
   built exactly once; the block->sink gates are declared with their
   (base, offset) parameterization and retuned per probe by
   {!Flow.Parametric.solve}.  Gates are added even when their capacity at
   the current g would be 0 — a zero-capacity arc carries no flow and adds
   no residual reachability, so the cut is unchanged, and the arc is there
   to open up at higher g. *)
let parametric_net ~dag ~w1 ~w2 =
  let open Block_dag in
  let n = dag.n_blocks in
  let s = n and t = n + 1 in
  let p = Flow.Parametric.create ~nodes:(n + 2) ~source:s ~sink:t in
  let q = dag.total_link_weight in
  for b = 0 to n - 1 do
    Flow.Parametric.add_arc p ~src:s ~dst:b ~cap:q;
    Flow.Parametric.add_gate p ~src:b ~base:dag.base_sink.(b)
      ~offset:(gate_offset ~dag ~w1 ~w2 b)
  done;
  Array.iter
    (fun (src, dst, w) -> Flow.Parametric.add_arc p ~src ~dst ~cap:w)
    dag.links;
  p

let sweep ?(impl = `Parametric) ~dag ~w1 ~w2 ~probes () =
  if dag.Block_dag.n_blocks = 0 then []
  else
    Obs.Span.with_ "flow_plan.sweep" @@ fun () ->
    let seen = Hashtbl.create 16 in
    let results = ref [] in
    let budget = ref probes in
    let pnet = lazy (parametric_net ~dag ~w1 ~w2) in
    let eval g =
      decr budget;
      Obs.Counter.incr c_probes;
      let sel =
        match impl with
        | `Rebuild -> min_cut_selection ~dag ~w1 ~w2 ~g
        | `Parametric -> selection_of_cut ~dag ~g (Flow.Parametric.solve (Lazy.force pnet) ~g)
      in
      let signature = String.concat "," (List.map string_of_int sel.blocks) in
      if (not (Hashtbl.mem seen signature)) && sel.blocks <> [] then begin
        Hashtbl.replace seen signature ();
        Obs.Counter.incr c_selections;
        results := sel :: !results
      end;
      sel
    in
    let lo = 0 and hi = g_max ~dag ~w1 ~w2 in
    let s_lo = eval lo in
    let s_hi = if !budget > 0 then eval hi else s_lo in
    (* Refine between gate values whose anchored sets differ; h(g) is
       monotone (Lemma 1), so equal h at both ends means nothing new in
       between.  Always split the interval with the largest h gap first —
       breadth-first splitting wastes the probe budget teasing apart
       near-identical plateaus at one end of the range — and break gap ties
       toward the lowest-g interval, so probes inside one split run in
       ascending g and land on the parametric engine's warm path. *)
    let heap =
      Min_heap.create
        ~cmp:(fun (ga, gla, _, _, _) (gb, glb, _, _, _) ->
          if ga <> gb then Int.compare gb ga else Int.compare gla glb)
    in
    let push glo hlo ghi hhi =
      if hlo > hhi && ghi - glo > 1 then Min_heap.push heap (hlo - hhi, glo, hlo, ghi, hhi)
    in
    push lo s_lo.h_score hi s_hi.h_score;
    let continue = ref true in
    while !budget > 0 && !continue do
      match Min_heap.pop heap with
      | None -> continue := false
      | Some (_, glo, hlo, ghi, hhi) ->
        let mid = (glo + ghi) / 2 in
        let sm = eval mid in
        push glo hlo mid sm.h_score;
        push mid sm.h_score ghi hhi
    done;
    (* Leaf-drop variants: a minimum cut reports the maximal source side,
       so symmetric sink-adjacent blocks always flip together and plans
       like "anchor all but one leaf" are invisible to the sweep.  Any
       block subset is a legitimate plan candidate (conversion costs are
       verified downstream), so emit, for every selection found, the
       variants dropping one sink-adjacent block. *)
    let variants = ref [] in
    let n_variants = ref 0 in
    let emit_drop sel b =
      let blocks = List.filter (fun x -> x <> b) sel.blocks in
      let h =
        List.fold_left (fun acc x -> acc + Array.length dag.Block_dag.edges_of.(x)) 0 blocks
      in
      let signature = String.concat "," (List.map string_of_int blocks) in
      if (not (Hashtbl.mem seen signature)) && blocks <> [] then begin
        Hashtbl.replace seen signature ();
        Obs.Counter.incr c_variants;
        incr n_variants;
        variants :=
          { g_param = sel.g_param; blocks; h_score = h; cut_value = sel.cut_value } :: !variants
      end
    in
    (* Top-selection leaf drops: shedding one small sink-adjacent block
       from the fullest anchoring is frequently the best plan of all — it
       keeps nearly the whole score while skipping the leaf whose unstable
       edges dominate the conversion cost.  Smallest leaves first. *)
    (match List.sort (fun a b -> Int.compare b.h_score a.h_score) !results with
    | top :: _ when List.length top.blocks >= 2 ->
      let leaves =
        List.filter (fun b -> dag.Block_dag.base_sink.(b) > 0) top.blocks
        |> List.sort (fun a b ->
               Int.compare
                 (Array.length dag.Block_dag.edges_of.(a))
                 (Array.length dag.Block_dag.edges_of.(b)))
      in
      List.iteri (fun i b -> if i < probes then emit_drop top b) leaves
    | _ -> ());
    (* Small-selection drops: on few-block DAGs every one-leaf-off subset is
       a distinct plan worth converting (the Fig. 1(c) plan is one). *)
    List.iter
      (fun sel ->
        List.iter
          (fun b ->
            if dag.Block_dag.base_sink.(b) > 0
               && List.length sel.blocks >= 2
               && List.length sel.blocks <= 8
               && !n_variants < 3 * probes
            then emit_drop sel b)
          sel.blocks)
      !results;
    List.sort (fun a b -> Int.compare b.h_score a.h_score) (!variants @ !results)
