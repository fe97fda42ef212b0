open Graphcore

type t = { tau : (Edge_key.t, int) Hashtbl.t; mutable kmax : int }

let c_edges_peeled = Obs.Counter.make "decompose.edges_peeled"

(* Sequential peel: every piece of peeling state is a flat int array
   indexed by edge id — supports, liveness, trussness — and the bucket
   queue is an intrusive doubly-linked list threaded through [next]/[prev],
   so the whole peel allocates nothing beyond the initial arrays.  Deleted
   edges are tracked with [alive] flags; the snapshot never changes. *)
let run_csr csr =
  let m = Csr.num_edges csr in
  let tau = Hashtbl.create (max m 1) in
  if m = 0 then { tau; kmax = 0 }
  else begin
    let sup = Support.all_csr csr in
    let max_sup = Array.fold_left max 0 sup in
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
    let alive = Array.make m true in
    let tau_arr = Array.make m 0 in
    let k = ref 2 in
    let kmax = ref 2 in
    let cursor = ref 0 in
    for _ = 1 to m do
      while head.(!cursor) < 0 do
        incr cursor
      done;
      let e = head.(!cursor) in
      let s = !cursor in
      unlink e;
      alive.(e) <- false;
      if s + 2 > !k then k := s + 2;
      tau_arr.(e) <- !k;
      if !k > !kmax then kmax := !k;
      let u, v = Csr.edge_endpoints csr e in
      let floor = !k - 2 in
      Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
          if alive.(e1) && alive.(e2) then begin
            let drop e' =
              let p = sup.(e') in
              let p' = max (p - 1) floor in
              if p' <> p then begin
                unlink e';
                link e' p'
              end
            in
            drop e1;
            drop e2
          end)
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
