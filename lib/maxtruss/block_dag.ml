open Graphcore

type t = {
  n_blocks : int;
  index : (Edge_key.t, int) Hashtbl.t;
  edges_of : Edge_key.t array array;
  layer : int array;
  tau : int array;
  links : (int * int * int) array;
  out_weight : int array;
  base_sink : int array;
  max_layer : int;
  max_block_size : int;
  total_link_weight : int;
}

(* Blocks over a snapshot whose edges in [h] are marked by [in_h].  Ranks
   of Definition 5 by edge id: a member's (trussness, onion layer), and
   (max_int, 0) for the backdrop, which is not peeled and ranks above every
   candidate; each member's trussness is looked up once.  Blocks are
   numbered in member order and links sorted, so the result depends only
   on the triangles of [h] through the members. *)
let of_snapshot ~csr ~in_h ~dec ~component ~eids ~(onion : Truss.Onion.layers) =
  Obs.Span.with_ "block_dag.build" @@ fun () ->
  let n = Array.length component in
  let m = Csr.num_edges csr in
  let layer = onion.layer_of and tau = Array.make m max_int in
  let pos = Array.make m (-1) in
  Array.iteri
    (fun i e ->
      pos.(e) <- i;
      tau.(e) <- Option.value ~default:0 (Truss.Decompose.trussness_opt dec component.(i)))
    eids;
  let rank_eq a b = tau.(a) = tau.(b) && layer.(a) = layer.(b) in
  let rank_ge a b = tau.(a) > tau.(b) || (tau.(a) = tau.(b) && layer.(a) >= layer.(b)) in
  let rank_gt a b = tau.(a) > tau.(b) || (tau.(a) = tau.(b) && layer.(a) > layer.(b)) in
  let each_triangle f =
    Array.iter
      (fun e ->
        let u, v = Csr.edge_endpoints csr e in
        Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
            if in_h.(e1) && in_h.(e2) then f e e1 e2))
      eids
  in
  (* Pass 1: merge onion-layer connected edges into blocks. *)
  let uf = Union_find.create n in
  each_triangle (fun e f1 f2 ->
      let try_union fi fo =
        if pos.(fi) >= 0 && rank_eq e fi && rank_ge fo e then Union_find.union uf pos.(e) pos.(fi)
      in
      try_union f1 f2;
      try_union f2 f1);
  (* Dense block ids, in order of each block's first member. *)
  let block_of_root = Array.make n (-1) in
  let next = ref 0 in
  let member_block =
    Array.init n (fun i ->
        let r = Union_find.find uf i in
        if block_of_root.(r) < 0 then begin
          block_of_root.(r) <- !next;
          incr next
        end;
        block_of_root.(r))
  in
  let n_blocks = !next in
  let block e = member_block.(pos.(e)) in
  let index = Hashtbl.create (max n 1) in
  Array.iteri (fun i key -> Hashtbl.replace index key member_block.(i)) component;
  let buckets = Array.make n_blocks [] in
  let block_tau = Array.make n_blocks 0 and block_layer = Array.make n_blocks 0 in
  Array.iteri
    (fun i key ->
      let e = eids.(i) in
      let b = block e in
      buckets.(b) <- key :: buckets.(b);
      block_tau.(b) <- tau.(e);
      block_layer.(b) <- layer.(e))
    component;
  let edges_of = Array.map Array.of_list buckets in
  (* Pass 2: link weights.  Q[(b1, b2)] collects the b1 edges adjacent to b2
     through a qualifying triangle; |Q| is the link capacity. *)
  let in_q = Hashtbl.create 64 and weight = Hashtbl.create 64 in
  each_triangle (fun e fi fo ->
      let consider deep shallow third =
        if pos.(deep) >= 0 && pos.(shallow) >= 0 then begin
          let bd = block deep and bs = block shallow in
          if bd <> bs && rank_gt deep shallow && rank_ge third shallow then begin
            (* [deep]'s block fixes the link's source, so the pair
               ([deep], [bs]) names the member of one Q set. *)
            let q = (pos.(deep) * n_blocks) + bs in
            if not (Hashtbl.mem in_q q) then begin
              Hashtbl.add in_q q ();
              let lk = (bd * n_blocks) + bs in
              Hashtbl.replace weight lk (1 + Option.value ~default:0 (Hashtbl.find_opt weight lk))
            end
          end
        end
      in
      (* Both orientations of both pairs through the base edge. *)
      consider e fi fo;
      consider fi e fo;
      consider e fo fi;
      consider fo e fi);
  let links =
    Hashtbl.fold (fun lk w acc -> (lk / n_blocks, lk mod n_blocks, w) :: acc) weight []
    |> List.sort compare |> Array.of_list
  in
  let out_weight = Array.make n_blocks 0 in
  Array.iter (fun (src, _, w) -> out_weight.(src) <- out_weight.(src) + w) links;
  let base_sink =
    Array.init n_blocks (fun b ->
        if out_weight.(b) = 0 then Array.length edges_of.(b) else 0)
  in
  let total_link_weight =
    Array.fold_left (fun acc (_, _, w) -> acc + w) 0 links
    + Array.fold_left ( + ) 0 base_sink
  in
  let max_block_size = Array.fold_left (fun m e -> max m (Array.length e)) 0 edges_of in
  {
    n_blocks;
    index;
    edges_of;
    layer = block_layer;
    tau = block_tau;
    links;
    out_weight;
    base_sink;
    max_layer = onion.max_layer;
    max_block_size;
    total_link_weight;
  }

let build ~h ~dec ~k:_ ~component ~(onion : Truss.Onion.result) =
  let csr, label = Csr.of_graph_dense h in
  let m = Csr.num_edges csr in
  let component = Array.of_list component in
  let layer_of = Array.make m 0 in
  let eids =
    Array.map
      (fun key ->
        let u, v = Edge_key.endpoints key in
        let e = Csr.edge_id csr (Csr.find_label label u) (Csr.find_label label v) in
        match Hashtbl.find_opt onion.layer key with
        | Some l when e >= 0 ->
          layer_of.(e) <- l;
          e
        | _ -> invalid_arg "Block_dag.build: component edge not in h or not peeled")
      component
  in
  of_snapshot ~csr ~in_h:(Array.make m true) ~dec ~component ~eids
    ~onion:{ layer_of; max_layer = onion.max_layer; rounds = onion.rounds }

let block_of t key = Hashtbl.find_opt t.index key

let edges_of_blocks t blocks =
  List.concat_map (fun b -> Array.to_list t.edges_of.(b)) blocks

let size t b = Array.length t.edges_of.(b)
