open Graphcore

type t = { tau : (Edge_key.t, int) Hashtbl.t; mutable kmax : int }

let c_edges_peeled = Obs.Counter.make "decompose.edges_peeled"

let c_list_peels = Obs.Counter.make "decompose.triangle_list_peels"

let c_intersect_peels = Obs.Counter.make "decompose.intersect_peels"

(* The peel's two triangle sources.  [each e f] retires the popped edge [e]
   and calls [f e1 e2] for every triangle through [e] whose other two
   edges [e1], [e2] are still unpeeled. *)

(* Stored incidence: one flat array of each triangle's three edge ids, and
   one of each edge's triangle ids at offsets taken from the supports (they
   sum to 3T).  A triangle dies, its first corner set to -1, the first
   time one of its edges is popped.  6T + m + 1 words. *)
let triangle_lists csr sup ~triangles =
  let m = Csr.num_edges csr in
  (* [off.(e)] starts as the end of [e]'s run and is decremented per
     placement, so it ends as the run's start; [off.(m)] = 3T. *)
  let off = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    off.(e + 1) <- off.(e) + sup.(e)
  done;
  Array.blit off 1 off 0 m;
  let incident = Array.make (3 * triangles) 0 in
  let corners = Array.make (3 * triangles) 0 in
  let place e t =
    off.(e) <- off.(e) - 1;
    incident.(off.(e)) <- t
  in
  let next = ref 0 in
  Csr.iter_triangles csr (fun e1 e2 e3 ->
      let t = !next in
      incr next;
      corners.(3 * t) <- e1;
      corners.((3 * t) + 1) <- e2;
      corners.((3 * t) + 2) <- e3;
      place e1 t;
      place e2 t;
      place e3 t);
  fun e f ->
    for i = off.(e) to off.(e + 1) - 1 do
      let t = incident.(i) in
      let a = corners.(3 * t) in
      if a >= 0 then begin
        corners.(3 * t) <- -1;
        let b = corners.((3 * t) + 1) and c = corners.((3 * t) + 2) in
        if a = e then f b c else if b = e then f a c else f a b
      end
    done

(* Row intersection: re-enumerate the popped edge's triangles from its two
   adjacency rows, skipping those with a peeled edge.  m words. *)
let row_intersection csr =
  let alive = Array.make (Csr.num_edges csr) true in
  fun e f ->
    alive.(e) <- false;
    let u, v = Csr.edge_endpoints csr e in
    Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 -> if alive.(e1) && alive.(e2) then f e1 e2)

(* Sequential peel: every piece of peeling state is a flat int array
   indexed by edge id — supports, trussness — and the bucket queue is an
   intrusive doubly-linked list threaded through [next]/[prev].  Triangles
   come from stored lists while those cost at most about twice the
   snapshot (T <= 2m), and from row intersection on denser inputs, where
   the lists cost more memory than they save time (DESIGN.md § 2 has both
   sources timed on every registry graph); trussness is unique, so both
   give the same result. *)
let run_csr csr =
  let m = Csr.num_edges csr in
  let tau = Hashtbl.create (max m 1) in
  if m = 0 then { tau; kmax = 0 }
  else begin
    let sup = Support.all_csr csr in
    let max_sup = Array.fold_left max 0 sup in
    let triangles = Array.fold_left ( + ) 0 sup / 3 in
    let each_triangle =
      if triangles <= 2 * m then begin
        Obs.Counter.incr c_list_peels;
        triangle_lists csr sup ~triangles
      end
      else begin
        Obs.Counter.incr c_intersect_peels;
        row_intersection csr
      end
    in
    (* Intrusive bucket list: head.(p) is the first edge with current
       support p; next/prev thread edges of equal support.  Supports only
       move down (clamped at k - 2 >= the cursor), so a monotone cursor
       finds each minimum in amortized O(1). *)
    let head = Array.make (max_sup + 1) (-1) in
    let next = Array.make m (-1) in
    let prev = Array.make m (-1) in
    let unlink e =
      let p = sup.(e) in
      if prev.(e) >= 0 then next.(prev.(e)) <- next.(e) else head.(p) <- next.(e);
      if next.(e) >= 0 then prev.(next.(e)) <- prev.(e)
    in
    let link e p =
      sup.(e) <- p;
      prev.(e) <- -1;
      next.(e) <- head.(p);
      if head.(p) >= 0 then prev.(head.(p)) <- e;
      head.(p) <- e
    in
    for e = m - 1 downto 0 do
      link e sup.(e)
    done;
    let tau_arr = Array.make m 0 in
    let k = ref 2 in
    let kmax = ref 2 in
    let cursor = ref 0 in
    let drop e' =
      let p = sup.(e') in
      let p' = max (p - 1) (!k - 2) in
      if p' <> p then begin
        unlink e';
        link e' p'
      end
    in
    let drop_both e1 e2 =
      drop e1;
      drop e2
    in
    for _ = 1 to m do
      while head.(!cursor) < 0 do
        incr cursor
      done;
      let e = head.(!cursor) in
      let s = !cursor in
      unlink e;
      if s + 2 > !k then k := s + 2;
      tau_arr.(e) <- !k;
      if !k > !kmax then kmax := !k;
      each_triangle e drop_both
    done;
    for e = 0 to m - 1 do
      Hashtbl.replace tau (Csr.edge_key csr e) tau_arr.(e)
    done;
    { tau; kmax = !kmax }
  end

let of_csr csr =
  Obs.Span.with_ "truss.decompose" (fun () ->
      let t = run_csr csr in
      Obs.Counter.add c_edges_peeled (Hashtbl.length t.tau);
      t)

let run g = of_csr (Csr.of_graph g)

let patched t ~changes =
  let tau = Hashtbl.copy t.tau in
  List.iter
    (fun (key, change) ->
      match change with
      | Some v -> Hashtbl.replace tau key v
      | None -> Hashtbl.remove tau key)
    changes;
  let kmax = Hashtbl.fold (fun _ v acc -> max v acc) tau 0 in
  { tau; kmax }

let trussness t key = Hashtbl.find t.tau key

let trussness_opt t key = Hashtbl.find_opt t.tau key

let kmax t = t.kmax

let k_class t k =
  Hashtbl.fold (fun key tau acc -> if tau = k then key :: acc else acc) t.tau []

let truss_edges t k =
  Hashtbl.fold (fun key tau acc -> if tau >= k then key :: acc else acc) t.tau []

let truss_edge_table t k =
  let tbl = Hashtbl.create 256 in
  Hashtbl.iter (fun key tau -> if tau >= k then Hashtbl.replace tbl key ()) t.tau;
  tbl

let class_sizes t =
  let counts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ tau ->
      let c = try Hashtbl.find counts tau with Not_found -> 0 in
      Hashtbl.replace counts tau (c + 1))
    t.tau;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let num_edges t = Hashtbl.length t.tau

let iter t f = Hashtbl.iter f t.tau
