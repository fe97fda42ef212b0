open Graphcore

type result = {
  layer : (Edge_key.t, int) Hashtbl.t;
  max_layer : int;
  rounds : int;
}

type layers = { layer_of : int array; max_layer : int; rounds : int }

let c_rounds = Obs.Counter.make "onion.peel_rounds"

let c_candidates = Obs.Counter.make "onion.candidates"

(* The peel, on an immutable snapshot: supports, liveness, layers and the
   candidate set are flat arrays over edge ids, and removals are flag
   flips in [alive], which starts as the mask of h's edges and is consumed
   by the peel. *)
let peel_core ~csr ~alive ~k ~candidates =
  let threshold = k - 2 in
  let m = Csr.num_edges csr in
  let is_cand = Array.make m false in
  Array.iter
    (fun e ->
      if e < 0 || not alive.(e) then invalid_arg "Onion.peel: candidate not in h";
      is_cand.(e) <- true)
    candidates;
  (* Only candidate supports are ever consulted, so intersect per candidate
     (backdrop triangles included) instead of enumerating every triangle of
     the snapshot — the backdrop usually dwarfs the candidate set. *)
  let sup = Array.make m 0 in
  let layer_of = Array.make m 0 in
  let remaining = ref 0 in
  for e = 0 to m - 1 do
    if is_cand.(e) then begin
      incr remaining;
      let u, v = Csr.edge_endpoints csr e in
      Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
          if alive.(e1) && alive.(e2) then sup.(e) <- sup.(e) + 1)
    end
  done;
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
    List.iter
      (fun e ->
        if layer_of.(e) = 0 then begin
          layer_of.(e) <- !round;
          if !round > !max_layer then max_layer := !round;
          decr remaining
        end)
      this_round;
    (* Remove the round's edges one by one; a triangle shared by two
       removed edges is broken by the first removal, so each lost triangle
       decrements each surviving candidate exactly once. *)
    List.iter
      (fun e ->
        let u, v = Csr.edge_endpoints csr e in
        Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
            if alive.(e1) && alive.(e2) then begin
              let decr_candidate e' =
                if is_cand.(e') && layer_of.(e') = 0 then begin
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
      if is_cand.(e) && layer_of.(e) = 0 then layer_of.(e) <- !max_layer
    done
  end;
  Obs.Counter.add c_rounds !round;
  Obs.Counter.add c_candidates (Array.length candidates);
  { layer_of; max_layer = !max_layer; rounds = !round }

let peel_snapshot ~csr ~in_h ~k ~candidates =
  Obs.Span.with_ "onion.peel" @@ fun () -> peel_core ~csr ~alive:(Array.copy in_h) ~k ~candidates

let peel ~h ~k ~candidates () =
  Obs.Span.with_ "onion.peel" @@ fun () ->
  let csr = Csr.of_graph h in
  let eid key =
    let u, v = Edge_key.endpoints key in
    if u = v then -1 else Csr.edge_id csr u v
  in
  let m = Csr.num_edges csr in
  let r =
    peel_core ~csr ~alive:(Array.make m true) ~k ~candidates:(Array.of_list (List.map eid candidates))
  in
  let layer = Hashtbl.create (max (List.length candidates) 1) in
  for e = 0 to m - 1 do
    if r.layer_of.(e) > 0 then Hashtbl.replace layer (Csr.edge_key csr e) r.layer_of.(e)
  done;
  { layer; max_layer = r.max_layer; rounds = r.rounds }

let build_h ~g ~backdrop ~candidates =
  let h = Graph.create ~capacity:(Graph.max_node_id g + 1) () in
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
