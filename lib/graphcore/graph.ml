type t = {
  mutable adj : (int, unit) Hashtbl.t option array;
  mutable max_id : int;
  mutable edges : int;
  mutable nodes : int; (* nodes with degree >= 1 *)
}

let create ?(capacity = 16) () =
  { adj = Array.make (max capacity 1) None; max_id = -1; edges = 0; nodes = 0 }

let ensure g v =
  if v < 0 || v >= Edge_key.max_node then invalid_arg "Graph: node id out of range";
  let cap = Array.length g.adj in
  if v >= cap then begin
    let ncap = max (v + 1) (2 * cap) in
    let nadj = Array.make ncap None in
    Array.blit g.adj 0 nadj 0 cap;
    g.adj <- nadj
  end;
  if v > g.max_id then g.max_id <- v

let table g v =
  match g.adj.(v) with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 4 in
    g.adj.(v) <- Some h;
    h

let degree g v =
  if v < 0 || v > g.max_id then 0
  else match g.adj.(v) with None -> 0 | Some h -> Hashtbl.length h

let mem_edge g u v =
  if u < 0 || v < 0 || u > g.max_id || v > g.max_id then false
  else
    match g.adj.(u) with
    | None -> false
    | Some h -> Hashtbl.mem h v

let mem_edge_key g k =
  let u, v = Edge_key.endpoints k in
  mem_edge g u v

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  ensure g u;
  ensure g v;
  if mem_edge g u v then false
  else begin
    let hu = table g u and hv = table g v in
    if Hashtbl.length hu = 0 then g.nodes <- g.nodes + 1;
    if Hashtbl.length hv = 0 then g.nodes <- g.nodes + 1;
    Hashtbl.replace hu v ();
    Hashtbl.replace hv u ();
    g.edges <- g.edges + 1;
    true
  end

let remove_edge g u v =
  if not (mem_edge g u v) then false
  else begin
    let hu = table g u and hv = table g v in
    Hashtbl.remove hu v;
    Hashtbl.remove hv u;
    if Hashtbl.length hu = 0 then g.nodes <- g.nodes - 1;
    if Hashtbl.length hv = 0 then g.nodes <- g.nodes - 1;
    g.edges <- g.edges - 1;
    true
  end

let num_edges g = g.edges
let num_nodes g = g.nodes
let max_node_id g = g.max_id

let iter_nodes g f =
  for v = 0 to g.max_id do
    match g.adj.(v) with
    | Some h when Hashtbl.length h > 0 -> f v
    | _ -> ()
  done

let iter_neighbors g v f =
  if v >= 0 && v <= g.max_id then
    match g.adj.(v) with
    | None -> ()
    | Some h -> Hashtbl.iter (fun w () -> f w) h

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun w -> acc := f !acc w);
  !acc

let neighbors g v = fold_neighbors g v (fun acc w -> w :: acc) []

let iter_edges g f =
  iter_nodes g (fun u -> iter_neighbors g u (fun v -> if u < v then f u v))

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := Edge_key.make u v :: !acc);
  !acc

let edge_array g =
  let arr = Array.make g.edges 0 in
  let i = ref 0 in
  iter_edges g (fun u v ->
      arr.(!i) <- Edge_key.make u v;
      incr i);
  arr

let iter_common_neighbors g u v f =
  let du = degree g u and dv = degree g v in
  if du > 0 && dv > 0 then begin
    let small, large = if du <= dv then (u, v) else (v, u) in
    iter_neighbors g small (fun w -> if w <> large && mem_edge g large w then f w)
  end

let count_common_neighbors g u v =
  let c = ref 0 in
  iter_common_neighbors g u v (fun _ -> incr c);
  !c

let copy g =
  let g' = create ~capacity:(g.max_id + 1) () in
  iter_edges g (fun u v -> ignore (add_edge g' u v));
  g'

let of_edges list =
  let g = create () in
  List.iter (fun (u, v) -> ignore (add_edge g u v)) list;
  g

let of_edge_keys keys =
  let g = create () in
  List.iter
    (fun k ->
      let u, v = Edge_key.endpoints k in
      ignore (add_edge g u v))
    keys;
  g

let subgraph_of_edges _g keys = of_edge_keys keys

let add_edges g list =
  List.fold_left (fun n (u, v) -> if add_edge g u v then n + 1 else n) 0 list

let remove_edges g list =
  List.fold_left (fun n (u, v) -> if remove_edge g u v then n + 1 else n) 0 list

let equal a b =
  num_edges a = num_edges b
  &&
  let ok = ref true in
  iter_edges a (fun u v -> if not (mem_edge b u v) then ok := false);
  !ok
