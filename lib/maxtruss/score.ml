open Graphcore

type frame = {
  csr : Csr.t;
  label : int array;  (* frame node i is graph node label.(i); ascending *)
  in_truss : bool array;  (* frame edge id -> in the baseline k-truss *)
}

type ctx = { g : Graph.t; k : int; old_truss : (Edge_key.t, unit) Hashtbl.t; frame : frame }

let graph_key csr label e =
  let a, b = Csr.edge_endpoints csr e in
  Edge_key.make label.(a) label.(b)

let make_frame csr label old_truss =
  let in_truss e = Hashtbl.mem old_truss (graph_key csr label e) in
  { csr; label; in_truss = Array.init (Csr.num_edges csr) in_truss }

let ctx_of_dec g csr dec ~k =
  Obs.Span.with_ "score.ctx" @@ fun () ->
  let old_truss = Truss.Decompose.truss_edge_table dec k in
  let label = Array.init (Csr.max_node_id csr + 1) Fun.id in
  { g; k; old_truss; frame = make_frame csr label old_truss }

let make_ctx g ~k =
  let csr = Csr.of_graph g in
  ctx_of_dec g csr (Truss.Decompose.of_csr csr) ~k

let c_evaluations = Obs.Counter.make "score.evaluations"

let evaluate ctx inserted =
  Obs.Span.with_ "score.evaluate" @@ fun () ->
  Obs.Counter.incr c_evaluations;
  let { csr; label; in_truss } = ctx.frame in
  let n = Array.length label in
  (* Plan endpoints outside the frame become new frame nodes n, n + 1, ... *)
  let outside = Hashtbl.create 8 in
  let local x =
    match Csr.find_label label x with
    | -1 -> (
      match Hashtbl.find_opt outside x with
      | Some i -> i
      | None ->
        let i = n + Hashtbl.length outside in
        Hashtbl.add outside x i;
        i)
    | i -> i
  in
  let inserted = List.map (fun (u, v) -> (local u, local v)) inserted in
  let d = Truss.Maintain.k_truss_after_insert_csr ~csr ~old_truss:in_truss ~k:ctx.k ~inserted in
  let global =
    let back = Array.make (Hashtbl.length outside) 0 in
    Hashtbl.iter (fun x i -> back.(i - n) <- x) outside;
    fun i -> if i < n then label.(i) else back.(i - n)
  in
  let promoted =
    List.map
      (fun key ->
        let a, b = Edge_key.endpoints key in
        Edge_key.make (global a) (global b))
      d.Truss.Maintain.promoted
  in
  { d with Truss.Maintain.promoted }

let local_ctx ctx ~component =
  Obs.Span.with_ "score.local_ctx" @@ fun () ->
  (* The scoring subgraph is wider than the conversion subgraph T_k ∪ E_c:
     promotions can also ride on low-trussness edges around the component
     (e.g. a class-2 edge completing a clique with inserted edges), so take
     the component plus every graph edge incident to a component node —
     which covers every backdrop edge {!Truss.Onion.build_h} would add. *)
  let h = Graph.create ~capacity:(Graph.max_node_id ctx.g + 1) () in
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace nodes u ();
      Hashtbl.replace nodes v ();
      ignore (Graph.add_edge h u v))
    component;
  Hashtbl.iter
    (fun u () -> Graph.iter_neighbors ctx.g u (fun v -> ignore (Graph.add_edge h u v)))
    nodes;
  let csr, label = Csr.of_graph_dense h in
  { ctx with g = h; frame = make_frame csr label ctx.old_truss }

let frame_csr ctx = ctx.frame.csr

let in_truss ctx e = ctx.frame.in_truss.(e)

let frame_edge_id ctx key =
  let { csr; label; _ } = ctx.frame in
  let u, v = Edge_key.endpoints key in
  Csr.edge_id csr (Csr.find_label label u) (Csr.find_label label v)

let score ctx inserted = List.length (evaluate ctx inserted).Truss.Maintain.promoted

let evaluate_oracle ?snapshot g ~k ~inserted =
  Obs.Span.with_ "score.evaluate_oracle" @@ fun () ->
  let csr, dec =
    match snapshot with
    | Some s -> s
    | None ->
      let csr = Csr.of_graph g in
      (csr, Truss.Decompose.of_csr csr)
  in
  let csr', _ = Csr.add_edges csr inserted in
  let in_before key =
    match Truss.Decompose.trussness_opt dec key with Some tau -> tau >= k | None -> false
  in
  let gain = ref 0 in
  Truss.Decompose.iter (Truss.Decompose.of_csr csr') (fun key tau ->
      if tau >= k && not (in_before key) then incr gain);
  !gain

let pairs_of_keys keys = List.map Edge_key.endpoints keys

let keys_of_pairs pairs = List.map (fun (u, v) -> Edge_key.make u v) pairs
