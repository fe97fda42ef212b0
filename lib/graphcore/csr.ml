(* Degree-ordered orientation, used only by triangle enumeration; built
   lazily so snapshot consumers that never enumerate triangles (onion peel,
   conversion csup) skip its cost entirely. *)
type orientation = {
  node_of_rank : int array;  (* n, degree order *)
  fwd_ptr : int array;  (* n + 1, oriented rows indexed by node id *)
  fwd_rank : int array;  (* m: rank of the higher-ranked neighbor, row-sorted *)
  fwd_eid : int array;  (* m *)
}

type t = {
  n : int;  (* adjacency slots: max node id + 1 *)
  m : int;
  nodes : int;  (* nodes with degree >= 1 *)
  row_ptr : int array;  (* n + 1 *)
  col_idx : int array;  (* 2m, each row sorted ascending *)
  eid : int array;  (* 2m, undirected edge id of each entry *)
  up_ptr : int array;  (* n + 1: first edge id owned by node u *)
  mid : int array;  (* n: index in col_idx of u's first neighbor > u *)
  esrc : int array;  (* m: smaller endpoint of each edge id *)
  orient : orientation Lazy.t;
}

let sort_range arr lo hi =
  let len = hi - lo in
  if len > 1 then begin
    let tmp = Array.sub arr lo len in
    Array.sort Int.compare tmp;
    Array.blit tmp 0 arr lo len
  end

(* First index in [lo, hi) of the sorted run with value >= x.  The int
   annotation keeps the comparison inline instead of a polymorphic call. *)
let lower_bound (arr : int array) (x : int) lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let c_snapshots = Obs.Counter.make "csr.snapshots_built"

(* Edge numbering and the lazy orientation, shared by every constructor:
   [row_ptr]/[col_idx] hold [n] adjacency rows, each sorted ascending. *)
let assemble ~n ~nodes ~row_ptr ~col_idx =
  Obs.Counter.incr c_snapshots;
  let m = row_ptr.(n) / 2 in
  let deg u = row_ptr.(u + 1) - row_ptr.(u) in
  (* Edge ids: lexicographic (u, v) with u < v.  [mid] splits each row into
     the lower (v < u) and upper (v > u) halves; ids number the upper
     entries in row-major order. *)
  let mid = Array.make (max n 1) 0 in
  let up_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    mid.(u) <- lower_bound col_idx u row_ptr.(u) row_ptr.(u + 1);
    up_ptr.(u + 1) <- up_ptr.(u) + (row_ptr.(u + 1) - mid.(u))
  done;
  let esrc = Array.make (max m 1) 0 in
  let eid = Array.make (max (2 * m) 1) 0 in
  for u = 0 to n - 1 do
    for i = row_ptr.(u) to row_ptr.(u + 1) - 1 do
      let v = col_idx.(i) in
      if v > u then begin
        let e = up_ptr.(u) + (i - mid.(u)) in
        eid.(i) <- e;
        esrc.(e) <- u
      end
      else
        (* id assigned from the smaller endpoint's upper run *)
        eid.(i) <- up_ptr.(v) + (lower_bound col_idx u mid.(v) row_ptr.(v + 1) - mid.(v))
    done
  done;
  (* Degree-ordered orientation: rank nodes by (degree, id); each oriented
     row lists the strictly higher-ranked neighbors.  Filling in ascending
     rank order leaves every row sorted by rank for free. *)
  let orient =
    lazy
      (let node_of_rank = Array.init (max n 1) (fun i -> i) in
       Array.sort
         (fun a b -> match Int.compare (deg a) (deg b) with 0 -> Int.compare a b | c -> c)
         node_of_rank;
       let rank = Array.make (max n 1) 0 in
       for r = 0 to n - 1 do
         rank.(node_of_rank.(r)) <- r
       done;
       let fwd_ptr = Array.make (n + 1) 0 in
       for u = 0 to n - 1 do
         let cnt = ref 0 in
         for i = row_ptr.(u) to row_ptr.(u + 1) - 1 do
           if rank.(col_idx.(i)) > rank.(u) then incr cnt
         done;
         fwd_ptr.(u + 1) <- fwd_ptr.(u) + !cnt
       done;
       let fwd_rank = Array.make (max m 1) 0 in
       let fwd_eid = Array.make (max m 1) 0 in
       let fcur = Array.copy fwd_ptr in
       for r = 0 to n - 1 do
         let w = node_of_rank.(r) in
         for i = row_ptr.(w) to row_ptr.(w + 1) - 1 do
           let v = col_idx.(i) in
           if rank.(v) < r then begin
             fwd_rank.(fcur.(v)) <- r;
             fwd_eid.(fcur.(v)) <- eid.(i);
             fcur.(v) <- fcur.(v) + 1
           end
         done
       done;
       { node_of_rank; fwd_ptr; fwd_rank; fwd_eid })
  in
  { n; m; nodes; row_ptr; col_idx; eid; up_ptr; mid; esrc; orient }

(* Rows [0, n) of [g] under the node renaming [name], each sorted. *)
let rows_of_graph g ~n ~graph_node ~name =
  let row_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_ptr.(u + 1) <- row_ptr.(u) + Graph.degree g (graph_node u)
  done;
  let col_idx = Array.make (max row_ptr.(n) 1) 0 in
  for u = 0 to n - 1 do
    let cursor = ref row_ptr.(u) in
    Graph.iter_neighbors g (graph_node u) (fun v ->
        col_idx.(!cursor) <- name v;
        incr cursor);
    sort_range col_idx row_ptr.(u) row_ptr.(u + 1)
  done;
  (row_ptr, col_idx)

let of_graph g =
  Obs.Span.with_ "csr.of_graph" @@ fun () ->
  let n = Graph.max_node_id g + 1 in
  let row_ptr, col_idx = rows_of_graph g ~n ~graph_node:Fun.id ~name:Fun.id in
  assemble ~n ~nodes:(Graph.num_nodes g) ~row_ptr ~col_idx

let of_graph_dense g =
  let label = Array.make (Graph.num_nodes g) 0 in
  let i = ref 0 in
  Graph.iter_nodes g (fun u ->
      label.(!i) <- u;
      incr i);
  let n = Array.length label in
  let row_ptr, col_idx =
    rows_of_graph g ~n ~graph_node:(Array.get label) ~name:(fun v -> lower_bound label v 0 n)
  in
  (assemble ~n ~nodes:n ~row_ptr ~col_idx, label)

let find_label label x =
  let n = Array.length label in
  let i = lower_bound label x 0 n in
  if i < n && label.(i) = x then i else -1

let num_nodes t = t.nodes
let num_edges t = t.m
let max_node_id t = t.n - 1

let degree t u = if u < 0 || u >= t.n then 0 else t.row_ptr.(u + 1) - t.row_ptr.(u)

(* Index in col_idx of neighbor v in u's row, or -1. *)
let find_in_row t u v =
  if u < 0 || u >= t.n then -1
  else begin
    let i = lower_bound t.col_idx v t.row_ptr.(u) t.row_ptr.(u + 1) in
    if i < t.row_ptr.(u + 1) && t.col_idx.(i) = v then i else -1
  end

let entry t u v = if degree t u <= degree t v then find_in_row t u v else find_in_row t v u

let mem_edge t u v = entry t u v >= 0

let add_edges t pairs =
  Obs.Span.with_ "csr.add_edges" @@ fun () ->
  let absent =
    List.filter_map
      (fun (u, v) ->
        if u < 0 || v < 0 || u >= Edge_key.max_node || v >= Edge_key.max_node then
          invalid_arg "Csr.add_edges: node id out of range";
        if u = v then None else Some (min u v, max u v))
      pairs
    |> List.sort_uniq compare
    |> List.filter (fun (u, v) -> not (mem_edge t u v))
  in
  let n = List.fold_left (fun acc (_, v) -> max acc (v + 1)) t.n absent in
  (* Each absent edge as two directed entries in (row, column) order: the
     merge below walks them in step with the old rows. *)
  let directed = List.sort compare (List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) absent) in
  let row_ptr = Array.make (n + 1) 0 in
  List.iter (fun (u, _) -> row_ptr.(u + 1) <- row_ptr.(u + 1) + 1) directed;
  let nodes = ref t.nodes in
  for u = 0 to n - 1 do
    let old = if u < t.n then t.row_ptr.(u + 1) - t.row_ptr.(u) else 0 in
    if old = 0 && row_ptr.(u + 1) > 0 then incr nodes;
    row_ptr.(u + 1) <- row_ptr.(u) + old + row_ptr.(u + 1)
  done;
  let col_idx = Array.make (max row_ptr.(n) 1) 0 in
  (* Untouched rows (and the untouched stretches of touched ones) move in
     blits between consecutive new entries. *)
  let src = ref 0 and dst = ref 0 in
  let copy_until pos =
    Array.blit t.col_idx !src col_idx !dst (pos - !src);
    dst := !dst + (pos - !src);
    src := pos
  in
  let old_len = t.row_ptr.(t.n) in
  List.iter
    (fun (u, v) ->
      copy_until
        (if u < t.n then lower_bound t.col_idx v t.row_ptr.(u) t.row_ptr.(u + 1) else old_len);
      col_idx.(!dst) <- v;
      incr dst)
    directed;
  copy_until old_len;
  (assemble ~n ~nodes:!nodes ~row_ptr ~col_idx, absent)

let edge_id t u v =
  let i = entry t u v in
  if i < 0 then -1 else t.eid.(i)

let edge_endpoints t e =
  if e < 0 || e >= t.m then invalid_arg "Csr.edge_endpoints: bad edge id";
  let u = t.esrc.(e) in
  (u, t.col_idx.(t.mid.(u) + (e - t.up_ptr.(u))))

let edge_key t e =
  let u, v = edge_endpoints t e in
  Edge_key.make u v

let iter_neighbors t u f =
  if u >= 0 && u < t.n then
    for i = t.row_ptr.(u) to t.row_ptr.(u + 1) - 1 do
      f t.col_idx.(i)
    done

let iter_neighbors_eid t u f =
  if u >= 0 && u < t.n then
    for i = t.row_ptr.(u) to t.row_ptr.(u + 1) - 1 do
      f t.col_idx.(i) t.eid.(i)
    done

(* First index in [lo, hi) with col >= x, galloping from lo: exponential
   probe doubling then binary search inside the bracket, so a run of [s]
   skipped entries costs O(log s) instead of O(s). *)
let gallop_ge t x lo hi =
  if lo >= hi || t.col_idx.(lo) >= x then lo
  else begin
    let base = ref lo and step = ref 1 in
    while !base + !step < hi && t.col_idx.(!base + !step) < x do
      base := !base + !step;
      step := !step * 2
    done;
    lower_bound t.col_idx x (!base + 1) (min (!base + !step) hi)
  end

let skew = 16

let iter_common_neighbors_eid t u v f =
  let du = degree t u and dv = degree t v in
  if du > 0 && dv > 0 then begin
    let alo = t.row_ptr.(u) and ahi = t.row_ptr.(u + 1) in
    let blo = t.row_ptr.(v) and bhi = t.row_ptr.(v + 1) in
    if du * skew < dv || dv * skew < du then begin
      (* Skewed: walk the short row, gallop through the long one. *)
      let slo, shi, llo, lhi, short_is_u =
        if du <= dv then (alo, ahi, blo, bhi, true) else (blo, bhi, alo, ahi, false)
      in
      let p = ref llo in
      let i = ref slo in
      while !i < shi && !p < lhi do
        let x = t.col_idx.(!i) in
        p := gallop_ge t x !p lhi;
        if !p < lhi && t.col_idx.(!p) = x then begin
          if short_is_u then f x t.eid.(!i) t.eid.(!p) else f x t.eid.(!p) t.eid.(!i);
          incr p
        end;
        incr i
      done
    end
    else begin
      (* Comparable degrees: linear two-pointer merge. *)
      let a = ref alo and b = ref blo in
      while !a < ahi && !b < bhi do
        let x = t.col_idx.(!a) and y = t.col_idx.(!b) in
        if x < y then incr a
        else if y < x then incr b
        else begin
          f x t.eid.(!a) t.eid.(!b);
          incr a;
          incr b
        end
      done
    end
  end

let count_common_neighbors t u v =
  let c = ref 0 in
  iter_common_neighbors_eid t u v (fun _ _ _ -> incr c);
  !c

let prepare_triangles t = ignore (Lazy.force t.orient)

let iter_triangles_range t ~lo ~hi f =
  let o = Lazy.force t.orient in
  for u = max lo 0 to min hi t.n - 1 do
    let uhi = o.fwd_ptr.(u + 1) in
    for j = o.fwd_ptr.(u) to uhi - 1 do
      let e_uv = o.fwd_eid.(j) in
      let v = o.node_of_rank.(o.fwd_rank.(j)) in
      (* Both oriented rows are rank-sorted; any common entry has rank above
         rank(v), so u's side can start just past j. *)
      let a = ref (j + 1) and b = ref o.fwd_ptr.(v) in
      let bhi = o.fwd_ptr.(v + 1) in
      while !a < uhi && !b < bhi do
        let ra = o.fwd_rank.(!a) and rb = o.fwd_rank.(!b) in
        if ra < rb then incr a
        else if rb < ra then incr b
        else begin
          f e_uv o.fwd_eid.(!a) o.fwd_eid.(!b);
          incr a;
          incr b
        end
      done
    done
  done

let iter_triangles t f = iter_triangles_range t ~lo:0 ~hi:t.n f

(* Vertex boundaries whose oriented out-degree prefix sums are (nearly)
   even: oriented edges approximate the intersection work per vertex far
   better than vertex counts do on skewed degree distributions. *)
let triangle_range_bounds t ~chunks =
  let o = Lazy.force t.orient in
  let c = max 1 chunks in
  let total = o.fwd_ptr.(t.n) in
  let bounds = Array.make (c + 1) t.n in
  bounds.(0) <- 0;
  for i = 1 to c - 1 do
    bounds.(i) <- lower_bound o.fwd_ptr (total * i / c) 0 (t.n + 1)
  done;
  for i = 1 to c do
    if bounds.(i) < bounds.(i - 1) then bounds.(i) <- bounds.(i - 1)
  done;
  bounds

let triangle_count t =
  let c = ref 0 in
  iter_triangles t (fun _ _ _ -> incr c);
  !c
