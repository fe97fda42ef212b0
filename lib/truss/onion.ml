open Graphcore

type result = {
  layer : (Edge_key.t, int) Hashtbl.t;
  max_layer : int;
  rounds : int;
}

let c_rounds = Obs.Counter.make "onion.peel_rounds"

let c_candidates = Obs.Counter.make "onion.candidates"

(* Growable int buffer for the parallel rounds' per-chunk target lists
   (same shape as Decompose's). *)
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

(* Rounds enumerate triangles per frontier edge — heavy iterations — so
   they fork on smaller ranges than the init scan's default grain. *)
let peel_grain = 1024

(* One immutable snapshot of h; supports, liveness, layers and the
   candidate set are flat arrays over edge ids, and removals are [alive]
   flag flips.  [h] itself is left untouched. *)
let peel_csr ~h ~k ~candidates =
  let threshold = k - 2 in
  let csr = Csr.of_graph h in
  let m = Csr.num_edges csr in
  let cand_eid =
    List.map
      (fun key ->
        let u, v = Edge_key.endpoints key in
        let e = if u = v then -1 else Csr.edge_id csr u v in
        if e < 0 then invalid_arg "Onion.peel: candidate not in h";
        e)
      candidates
  in
  let is_cand = Array.make (max m 1) false in
  List.iter (fun e -> is_cand.(e) <- true) cand_eid;
  (* Only candidate supports are ever consulted, so intersect per candidate
     (backdrop triangles included) instead of enumerating every triangle of
     the snapshot — the backdrop usually dwarfs the candidate set. *)
  let sup = Array.make (max m 1) 0 in
  let layer_arr = Array.make (max m 1) 0 in
  let alive = Array.make (max m 1) true in
  let remaining = ref 0 in
  let init_range lo hi =
    let cnt = ref 0 in
    for e = lo to hi - 1 do
      if is_cand.(e) then begin
        incr cnt;
        let u, v = Csr.edge_endpoints csr e in
        sup.(e) <- Csr.count_common_neighbors csr u v
      end
    done;
    !cnt
  in
  (* Chunks write disjoint [sup] slots and only read the snapshot, so the
     array is the same as the sequential fill; per-chunk candidate counts
     are summed in chunk order.  Per-edge cost is one sorted intersection —
     moderate — so the default grain (the old 4096 cutoff) is right. *)
  Array.iter
    (fun c -> remaining := !remaining + c)
    (Par.map_range ~n:m init_range);
  let frontier = ref [] in
  for e = m - 1 downto 0 do
    if is_cand.(e) && sup.(e) < threshold then frontier := e :: !frontier
  done;
  let round = ref 0 in
  let max_layer = ref 0 in
  while !remaining > 0 && !frontier <> [] do
    incr round;
    let this_round = !frontier in
    frontier := [];
    let marked = ref [] in
    let n_marked = ref 0 in
    List.iter
      (fun e ->
        if layer_arr.(e) = 0 then begin
          layer_arr.(e) <- !round;
          if !round > !max_layer then max_layer := !round;
          decr remaining;
          marked := e :: !marked;
          incr n_marked
        end)
      this_round;
    if Par.available () && !n_marked > peel_grain then begin
      (* Parallel round (the round-synchronized scheme of
         Decompose.run_csr_rounds): kill the whole round up front, compute
         the surviving-candidate decrement targets in parallel over
         frontier chunks — a triangle losing >= 2 round edges is charged by
         its minimum-id one — and apply them on the owner in chunk order.
         Same decrements, same next frontier, same layers as the
         sequential interleave below. *)
      let rid = !round in
      let fr = Array.of_list !marked in
      Array.iter (fun e -> alive.(e) <- false) fr;
      let parts =
        Par.map_range ~grain:peel_grain ~n:(Array.length fr) (fun lo hi ->
            let out = vec_make () in
            for i = lo to hi - 1 do
              let e = fr.(i) in
              let u, v = Csr.edge_endpoints csr e in
              Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
                  let r1 = layer_arr.(e1) = rid and r2 = layer_arr.(e2) = rid in
                  if
                    (alive.(e1) || r1)
                    && (alive.(e2) || r2)
                    && ((not r1) || e < e1)
                    && ((not r2) || e < e2)
                  then begin
                    if (not r1) && is_cand.(e1) && layer_arr.(e1) = 0 then vec_push out e1;
                    if (not r2) && is_cand.(e2) && layer_arr.(e2) = 0 then vec_push out e2
                  end)
            done;
            out)
      in
      Array.iter
        (fun part ->
          for i = 0 to part.len - 1 do
            let x = part.buf.(i) in
            sup.(x) <- sup.(x) - 1;
            if sup.(x) = threshold - 1 then frontier := x :: !frontier
          done)
        parts
    end
    else
      (* Sequential interleave: remove the round's edges one by one; a
         triangle shared by two removed edges is broken by the first
         removal, so each lost triangle decrements each surviving
         candidate exactly once. *)
      List.iter
        (fun e ->
          let u, v = Csr.edge_endpoints csr e in
          Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
              if alive.(e1) && alive.(e2) then begin
                let decr_candidate e' =
                  if is_cand.(e') && layer_arr.(e') = 0 then begin
                    sup.(e') <- sup.(e') - 1;
                    if sup.(e') = threshold - 1 then frontier := e' :: !frontier
                  end
                in
                decr_candidate e1;
                decr_candidate e2
              end);
          alive.(e) <- false)
        this_round
  done;
  if !remaining > 0 then begin
    max_layer := !max_layer + 1;
    for e = 0 to m - 1 do
      if is_cand.(e) && layer_arr.(e) = 0 then layer_arr.(e) <- !max_layer
    done
  end;
  let layer = Hashtbl.create (max (List.length candidates) 1) in
  for e = 0 to m - 1 do
    if is_cand.(e) then Hashtbl.replace layer (Csr.edge_key csr e) layer_arr.(e)
  done;
  { layer; max_layer = (if !max_layer = 0 then 0 else !max_layer); rounds = !round }

let peel ~h ~k ~candidates () =
  Obs.Span.with_ "onion.peel" (fun () ->
      let r = peel_csr ~h ~k ~candidates in
      Obs.Counter.add c_rounds r.rounds;
      Obs.Counter.add c_candidates (List.length candidates);
      r)

let build_h ~g ~backdrop ~candidates =
  let h = Graph.create () in
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace nodes u ();
      Hashtbl.replace nodes v ();
      ignore (Graph.add_edge h u v))
    candidates;
  Hashtbl.iter
    (fun key () ->
      let u, v = Edge_key.endpoints key in
      if Hashtbl.mem nodes u || Hashtbl.mem nodes v then
        if Graph.mem_edge g u v then ignore (Graph.add_edge h u v))
    backdrop;
  h
