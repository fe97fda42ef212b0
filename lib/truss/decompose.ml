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

(* Growable int buffer for the parallel rounds' per-chunk target lists;
   deliberately dumb (no module) so pushes inline. *)
type vec = { mutable buf : int array; mutable len : int }

let vec_make () = { buf = Array.make 256 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let nb = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 nb 0 v.len;
    v.buf <- nb
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* Peel rounds enumerate triangles per frontier edge — hundreds of ns per
   iteration, an order heavier than the support scatter — so they fork
   profitably on much smaller ranges than [Par.default_grain]. *)
let peel_grain = 1024

(* Round-synchronized parallel peel (the bucket-synchronized rounds of
   shared-memory k-truss decompositions, Jakkula & Karypis
   arXiv:1908.10550), bit-identical to [run_csr]:

   instead of retiring the minimum-support edge one at a time, each step
   peels a whole FRONTIER — every edge currently at the cursor level p —
   as one round: assign all of them tau = k, kill them, then compute the
   support decrements they cause in parallel over frontier chunks and
   apply the decrements on the owner, queueing survivors that fall to <= p
   as the next round's frontier.  Equivalence to the sequential peel:

   - trussness is canonical — any peel order that always retires a
     minimum-support edge yields the same tau — and within one level every
     frontier edge has support exactly p (seeds by bucket membership,
     dropped survivors by the k-2 clamp), so retiring them in rounds IS a
     valid minimum-first order;
   - a triangle with >= 2 edges dying in the same round must charge the
     surviving third edge exactly once (the sequential interleave breaks
     the triangle at the first removal): each frontier edge enumerates its
     triangles against liveness-at-round-START (alive, or killed by THIS
     round), and a triangle is owned by its minimum-id in-round edge, so
     it is counted once no matter how the frontier was chunked;
   - decrements to in-round edges are dropped entirely, which is what the
     sequential clamp does anyway (their support p is already the floor);
   - batch-applying n decrements with the clamp equals n clamped single
     decrements, so per-level supports agree after every cascade.

   Only wall-clock and the par.* counters differ from [run_csr]. *)
let run_csr_rounds csr =
  let m = Csr.num_edges csr in
  let tau = Hashtbl.create (max m 1) in
  if m = 0 then { tau; kmax = 0 }
  else begin
    let sup = Support.all_csr csr in
    let max_sup = Array.fold_left max 0 sup in
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
    let stamp = Array.make m 0 in (* round the edge peeled in; 0 = not yet *)
    let queued = Array.make m false in (* awaiting the next round *)
    let tau_arr = Array.make m 0 in
    let k = ref 2 in
    let kmax = ref 2 in
    let cursor = ref 0 in
    let remaining = ref m in
    let round = ref 0 in
    (* Decrement targets caused by frontier chunk [lo, hi): each surviving
       (not-in-round) edge of an owned triangle, pushed once per lost
       triangle.  Tasks only READ shared state — all writes happen on the
       owner before the fork (marking) or after the join (merge). *)
    let targets_of_range rid fr lo hi =
      let out = vec_make () in
      for i = lo to hi - 1 do
        let e = fr.(i) in
        let u, v = Csr.edge_endpoints csr e in
        Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
            let r1 = stamp.(e1) = rid and r2 = stamp.(e2) = rid in
            if
              (alive.(e1) || r1)
              && (alive.(e2) || r2)
              && ((not r1) || e < e1)
              && ((not r2) || e < e2)
            then begin
              if not r1 then vec_push out e1;
              if not r2 then vec_push out e2
            end)
      done;
      out
    in
    while !remaining > 0 do
      while head.(!cursor) < 0 do
        incr cursor
      done;
      let p = !cursor in
      if p + 2 > !k then k := p + 2;
      if !k > !kmax then kmax := !k;
      let kv = !k in
      (* Seed frontier: the whole bucket at level p.  Members never return
         to a bucket, so dropping the list head is removal enough. *)
      let seed = vec_make () in
      let e = ref head.(p) in
      while !e >= 0 do
        vec_push seed !e;
        e := next.(!e)
      done;
      head.(p) <- -1;
      let frontier = ref (Array.sub seed.buf 0 seed.len) in
      while Array.length !frontier > 0 do
        incr round;
        let rid = !round in
        let fr = !frontier in
        let len = Array.length fr in
        Array.iter
          (fun e ->
            stamp.(e) <- rid;
            alive.(e) <- false;
            tau_arr.(e) <- kv)
          fr;
        remaining := !remaining - len;
        let parts =
          Par.map_range ~grain:peel_grain ~n:len (fun lo hi ->
              targets_of_range rid fr lo hi)
        in
        (* Deterministic merge: chunks in index order, decrements applied
           one at a time with the sequential clamp semantics. *)
        let nf = vec_make () in
        Array.iter
          (fun part ->
            for i = 0 to part.len - 1 do
              let x = part.buf.(i) in
              if not queued.(x) then begin
                let s = sup.(x) - 1 in
                unlink x;
                if s <= p then begin
                  sup.(x) <- p;
                  queued.(x) <- true;
                  vec_push nf x
                end
                else link x s
              end
            done)
          parts;
        frontier := Array.sub nf.buf 0 nf.len
      done
    done;
    for e = 0 to m - 1 do
      Hashtbl.replace tau (Csr.edge_key csr e) tau_arr.(e)
    done;
    { tau; kmax = !kmax }
  end

let of_csr csr =
  Obs.Span.with_ "truss.decompose" (fun () ->
      let t = if Par.available () then run_csr_rounds csr else run_csr csr in
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
