open Graphcore

type ctx = { g : Graph.t; k : int; old_truss : (Edge_key.t, unit) Hashtbl.t }

let ctx_of_dec g dec ~k =
  Obs.Span.with_ "score.ctx" @@ fun () ->
  { g; k; old_truss = Truss.Decompose.truss_edge_table dec k }

let make_ctx g ~k = ctx_of_dec g (Truss.Decompose.run g) ~k

let c_evaluations = Obs.Counter.make "score.evaluations"

let evaluate ctx inserted =
  Obs.Span.with_ "score.evaluate" @@ fun () ->
  Obs.Counter.incr c_evaluations;
  Truss.Maintain.k_truss_after_insert ~g:ctx.g ~old_truss:ctx.old_truss ~k:ctx.k ~inserted

let local_ctx ctx ~component =
  Obs.Span.with_ "score.local_ctx" @@ fun () ->
  (* The scoring subgraph is wider than the conversion subgraph T_k ∪ E_c:
     promotions can also ride on low-trussness edges around the component
     (e.g. a class-2 edge completing a clique with inserted edges), so
     include every graph edge incident to a component node, plus backdrop
     edges one hop out. *)
  let h = Truss.Onion.build_h ~g:ctx.g ~backdrop:ctx.old_truss ~candidates:component in
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace nodes u ();
      Hashtbl.replace nodes v ())
    component;
  Hashtbl.iter
    (fun u () -> Graph.iter_neighbors ctx.g u (fun v -> ignore (Graph.add_edge h u v)))
    nodes;
  let old_local = Hashtbl.create 256 in
  Graph.iter_edges h (fun u v ->
      let key = Edge_key.make u v in
      if Hashtbl.mem ctx.old_truss key then Hashtbl.replace old_local key ());
  { g = h; k = ctx.k; old_truss = old_local }

let score ctx inserted = List.length (evaluate ctx inserted).Truss.Maintain.promoted

let evaluate_oracle ?dec g ~k ~inserted =
  Obs.Span.with_ "score.evaluate_oracle" @@ fun () ->
  let dec = match dec with Some dec -> dec | None -> Truss.Decompose.run g in
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g' u v)) inserted;
  let in_before key =
    match Truss.Decompose.trussness_opt dec key with Some tau -> tau >= k | None -> false
  in
  let gain = ref 0 in
  Truss.Decompose.iter (Truss.Decompose.run g') (fun key tau ->
      if tau >= k && not (in_before key) then incr gain);
  !gain

let pairs_of_keys keys = List.map Edge_key.endpoints keys

let keys_of_pairs pairs = List.map (fun (u, v) -> Edge_key.make u v) pairs
