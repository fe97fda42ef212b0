(* Hashtable reference engines: the library's truss kernels all run on CSR
   snapshots, and these independent implementations — per-edge hash-probe
   supports, peeling a mutable graph copy — are the oracles the agreement
   properties compare them against.  None of them touches Graphcore.Csr. *)

open Graphcore

(* Support of every edge by per-edge neighbor probing. *)
let support g =
  let tbl = Hashtbl.create (Graph.num_edges g) in
  Graph.iter_edges g (fun u v ->
      Hashtbl.replace tbl (Edge_key.make u v) (Graph.count_common_neighbors g u v));
  tbl

(* Trussness of every edge and kmax: peel a mutable copy with an
   Edge_key-keyed bucket queue. *)
let decompose g =
  let work = Graph.copy g in
  let m = Graph.num_edges work in
  let tau = Hashtbl.create (max m 1) in
  let sup = support work in
  let max_sup = Hashtbl.fold (fun _ s acc -> max s acc) sup 0 in
  let queue = Bucket_queue.create ~max_priority:(max max_sup 1) in
  Hashtbl.iter (fun key s -> Bucket_queue.add queue key s) sup;
  let k = ref 2 in
  let kmax = ref (if m = 0 then 0 else 2) in
  let rec drain () =
    match Bucket_queue.pop_min queue with
    | None -> ()
    | Some (key, s) ->
      if s + 2 > !k then k := s + 2;
      Hashtbl.replace tau key !k;
      if !k > !kmax then kmax := !k;
      let u, v = Edge_key.endpoints key in
      (* Each surviving triangle through (u,v) loses one support on both of
         its other edges. *)
      Graph.iter_common_neighbors work u v (fun w ->
          let lower e =
            match Bucket_queue.priority queue e with
            | Some p -> Bucket_queue.update queue e (max (p - 1) (!k - 2))
            | None -> ()
          in
          lower (Edge_key.make u w);
          lower (Edge_key.make v w));
      ignore (Graph.remove_edge work u v);
      drain ()
  in
  drain ();
  (tau, !kmax)

(* The k-truss edge set by a fixed-threshold cascade on a mutable copy;
   [backdrop] edges are never peeled. *)
let k_truss_edges ?(backdrop = Hashtbl.create 1) g ~k =
  let work = Graph.copy g in
  let threshold = k - 2 in
  let sup = support work in
  Hashtbl.iter (fun key () -> Hashtbl.remove sup key) backdrop;
  let queue = Queue.create () in
  Hashtbl.iter (fun key s -> if s < threshold then Queue.push key queue) sup;
  let removed = Hashtbl.create 64 in
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    if not (Hashtbl.mem removed key) then begin
      Hashtbl.replace removed key ();
      let u, v = Edge_key.endpoints key in
      Graph.iter_common_neighbors work u v (fun w ->
          let lower e =
            match Hashtbl.find_opt sup e with
            | Some s when not (Hashtbl.mem removed e) ->
              Hashtbl.replace sup e (s - 1);
              if s - 1 < threshold then Queue.push e queue
            | _ -> ()
          in
          lower (Edge_key.make u w);
          lower (Edge_key.make v w));
      ignore (Graph.remove_edge work u v)
    end
  done;
  let result = Hashtbl.create 256 in
  Graph.iter_edges work (fun u v -> Hashtbl.replace result (Edge_key.make u v) ());
  result

(* Onion layers by synchronous rounds, physically removing each round's
   edges from [h] (which it consumes). *)
let onion_peel ~h ~k ~candidates =
  let threshold = k - 2 in
  let n = List.length candidates in
  let layer = Hashtbl.create (max n 1) in
  let sup = Hashtbl.create (max n 1) in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace sup key (Graph.count_common_neighbors h u v))
    candidates;
  let remaining = ref (Hashtbl.length sup) in
  let frontier = ref [] in
  Hashtbl.iter (fun key s -> if s < threshold then frontier := key :: !frontier) sup;
  let round = ref 0 in
  let max_layer = ref 0 in
  while !remaining > 0 && !frontier <> [] do
    incr round;
    let this_round = !frontier in
    frontier := [];
    List.iter
      (fun key ->
        if not (Hashtbl.mem layer key) then begin
          Hashtbl.replace layer key !round;
          if !round > !max_layer then max_layer := !round;
          decr remaining
        end)
      this_round;
    (* Remove the round's edges one by one; a triangle shared by two removed
       edges is broken by the first removal, so each lost triangle
       decrements each surviving candidate exactly once. *)
    List.iter
      (fun key ->
        let u, v = Edge_key.endpoints key in
        Graph.iter_common_neighbors h u v (fun w ->
            let lower e =
              if not (Hashtbl.mem layer e) then
                match Hashtbl.find_opt sup e with
                | Some s ->
                  Hashtbl.replace sup e (s - 1);
                  if s - 1 = threshold - 1 then frontier := e :: !frontier
                | None -> ()
            in
            lower (Edge_key.make u w);
            lower (Edge_key.make v w));
        ignore (Graph.remove_edge h u v))
      this_round
  done;
  (* Candidates the peel could not remove land in the deepest layer. *)
  if !remaining > 0 then begin
    incr max_layer;
    Hashtbl.iter
      (fun key _ -> if not (Hashtbl.mem layer key) then Hashtbl.replace layer key !max_layer)
      sup
  end;
  { Truss.Onion.layer; max_layer = !max_layer; rounds = !round }
