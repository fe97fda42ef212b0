open Graphcore

type delta = { promoted : Edge_key.t list; new_size : int }

let k_truss_after_insert ~g ~old_truss ~k ~inserted =
  let threshold = k - 2 in
  (* Temporarily apply the insertions; undo before returning. *)
  let applied =
    List.filter_map
      (fun (u, v) -> if u <> v && Graph.add_edge g u v then Some (u, v) else None)
      inserted
  in
  let finish promoted =
    List.iter (fun (u, v) -> ignore (Graph.remove_edge g u v)) applied;
    { promoted; new_size = Hashtbl.length old_truss + List.length promoted }
  in
  if applied = [] then finish []
  else begin
    let in_old key = Hashtbl.mem old_truss key in
    (* Region growth: BFS over triangle adjacency from the inserted edges.
       Every promoted edge is triangle-connected to an inserted edge through
       triangles lying inside the new truss, so it suffices to walk
       triangles all of whose edges pass the necessary membership filter
       (support >= k - 2 in the updated graph, or already in the truss). *)
    let filter_cache = Hashtbl.create 256 in
    let passes key =
      match Hashtbl.find_opt filter_cache key with
      | Some b -> b
      | None ->
        let u, v = Edge_key.endpoints key in
        let b =
          in_old key
          || (Graph.mem_edge g u v && Graph.count_common_neighbors g u v >= threshold)
        in
        Hashtbl.replace filter_cache key b;
        b
    in
    let region = Hashtbl.create 64 in
    let queue = Queue.create () in
    let consider key =
      if (not (Hashtbl.mem region key)) && (not (in_old key)) && passes key then begin
        Hashtbl.replace region key ();
        Queue.push key queue
      end
    in
    List.iter (fun (u, v) -> consider (Edge_key.make u v)) applied;
    while not (Queue.is_empty queue) do
      let key = Queue.pop queue in
      let u, v = Edge_key.endpoints key in
      Graph.iter_common_neighbors g u v (fun w ->
          let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
          (* Expand only through triangles that could lie in the new truss:
             the companion edge must pass the filter too. *)
          if passes e2 then consider e1;
          if passes e1 then consider e2)
    done;
    (* Peel the region with the old truss as fixed backdrop: supports count
       triangles whose other two edges are in (region ∪ old truss). *)
    let present key = Hashtbl.mem region key || in_old key in
    let sup = Hashtbl.create (Hashtbl.length region) in
    Hashtbl.iter
      (fun key () ->
        let u, v = Edge_key.endpoints key in
        let s = ref 0 in
        Graph.iter_common_neighbors g u v (fun w ->
            if present (Edge_key.make u w) && present (Edge_key.make v w) then incr s);
        Hashtbl.replace sup key !s)
      region;
    let removal = Queue.create () in
    let removed = Hashtbl.create 64 in
    Hashtbl.iter (fun key s -> if s < threshold then Queue.push key removal) sup;
    while not (Queue.is_empty removal) do
      let key = Queue.pop removal in
      if not (Hashtbl.mem removed key) then begin
        Hashtbl.replace removed key ();
        let u, v = Edge_key.endpoints key in
        Graph.iter_common_neighbors g u v (fun w ->
            let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
            let alive e =
              in_old e || (Hashtbl.mem region e && not (Hashtbl.mem removed e))
            in
            (* Invariant: sup counts triangles whose other two edges are
               alive, so a removal discounts a triangle exactly once. *)
            if alive e1 && alive e2 then begin
              let decr e =
                if Hashtbl.mem region e && not (Hashtbl.mem removed e) then begin
                  let s = Hashtbl.find sup e in
                  Hashtbl.replace sup e (s - 1);
                  if s - 1 < threshold then Queue.push e removal
                end
              in
              decr e1;
              decr e2
            end)
      end
    done;
    let promoted =
      Hashtbl.fold (fun key () acc -> if Hashtbl.mem removed key then acc else key :: acc)
        region []
    in
    finish promoted
  end

(* The same region-grow-and-peel on a frozen snapshot.  The plan's new
   edges are appended after the snapshot's, with ids [m, m + p), and every
   piece of state — filter cache, region, supports, removals — is a flat
   array over those ids. *)
let k_truss_after_insert_csr ~csr ~old_truss ~k ~inserted =
  let threshold = k - 2 in
  let m = Csr.num_edges csr in
  (* [plan] maps each endpoint of a new edge to its (neighbor, edge id)
     pairs; [ends] lists the new edges' endpoints, newest first. *)
  let plan = Hashtbl.create 16 in
  let plan_nbrs u = Option.value ~default:[] (Hashtbl.find_opt plan u) in
  let plan_edge u v = Option.value ~default:(-1) (List.assoc_opt v (plan_nbrs u)) in
  let ends = ref [] and p = ref 0 in
  List.iter
    (fun (u, v) ->
      if u <> v && Csr.edge_id csr u v < 0 && plan_edge u v < 0 then begin
        let e = m + !p in
        incr p;
        Hashtbl.replace plan u ((v, e) :: plan_nbrs u);
        Hashtbl.replace plan v ((u, e) :: plan_nbrs v);
        ends := (u, v) :: !ends
      end)
    inserted;
  let old_size = ref 0 in
  for e = 0 to m - 1 do
    if old_truss.(e) then incr old_size
  done;
  if !p = 0 then { promoted = []; new_size = !old_size }
  else begin
    let total = m + !p in
    let ends = Array.of_list (List.rev !ends) in
    let endpoints e = if e < m then Csr.edge_endpoints csr e else ends.(e - m) in
    let in_old e = e < m && old_truss.(e) in
    (* [f w e_uw e_vw] once per triangle {u, v, w} of the updated graph.
       A node's snapshot and plan neighbors are disjoint, so the snapshot
       intersection and the two plan-side probes never meet the same w. *)
    let iter_common u v f =
      Csr.iter_common_neighbors_eid csr u v f;
      List.iter
        (fun (w, e_uw) ->
          if w <> v then begin
            let e_vw = Csr.edge_id csr v w in
            let e_vw = if e_vw >= 0 then e_vw else plan_edge v w in
            if e_vw >= 0 then f w e_uw e_vw
          end)
        (plan_nbrs u);
      List.iter
        (fun (w, e_vw) ->
          if w <> u then begin
            let e_uw = Csr.edge_id csr u w in
            if e_uw >= 0 then f w e_uw e_vw
          end)
        (plan_nbrs v)
    in
    (* 0 = not yet computed, 1 = passes, 2 = fails *)
    let filter = Array.make total 0 in
    let passes e =
      if filter.(e) = 0 then begin
        let ok =
          in_old e
          ||
          let u, v = endpoints e in
          let s = ref 0 in
          iter_common u v (fun _ _ _ -> incr s);
          !s >= threshold
        in
        filter.(e) <- (if ok then 1 else 2)
      end;
      filter.(e) = 1
    in
    let region = Array.make total false in
    let members = ref [] in
    let queue = Queue.create () in
    let consider e =
      if (not region.(e)) && (not (in_old e)) && passes e then begin
        region.(e) <- true;
        members := e :: !members;
        Queue.push e queue
      end
    in
    for e = m to total - 1 do
      consider e
    done;
    while not (Queue.is_empty queue) do
      let u, v = endpoints (Queue.pop queue) in
      iter_common u v (fun _ e1 e2 ->
          if passes e2 then consider e1;
          if passes e1 then consider e2)
    done;
    let sup = Array.make total 0 in
    let removal = Queue.create () in
    List.iter
      (fun e ->
        let u, v = endpoints e in
        iter_common u v (fun _ e1 e2 ->
            if (region.(e1) || in_old e1) && (region.(e2) || in_old e2) then
              sup.(e) <- sup.(e) + 1);
        if sup.(e) < threshold then Queue.push e removal)
      !members;
    let removed = Array.make total false in
    let alive e = in_old e || (region.(e) && not removed.(e)) in
    while not (Queue.is_empty removal) do
      let e = Queue.pop removal in
      if not removed.(e) then begin
        removed.(e) <- true;
        let u, v = endpoints e in
        iter_common u v (fun _ e1 e2 ->
            if alive e1 && alive e2 then begin
              let decr e' =
                if region.(e') && not removed.(e') then begin
                  sup.(e') <- sup.(e') - 1;
                  if sup.(e') < threshold then Queue.push e' removal
                end
              in
              decr e1;
              decr e2
            end)
      end
    done;
    let promoted =
      List.filter_map
        (fun e ->
          if removed.(e) then None
          else
            let u, v = endpoints e in
            Some (Edge_key.make u v))
        !members
    in
    { promoted; new_size = !old_size + List.length promoted }
  end

type delta_del = { demoted : Edge_key.t list; remaining : int }

let k_truss_after_delete ~g ~old_truss ~k ~deleted =
  let threshold = k - 2 in
  let applied =
    List.filter_map
      (fun (u, v) -> if u <> v && Graph.remove_edge g u v then Some (u, v) else None)
      deleted
  in
  let finish demoted =
    List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) applied;
    { demoted; remaining = Hashtbl.length old_truss - List.length demoted }
  in
  if applied = [] then finish []
  else begin
    (* Truss edges withdrawn outright by the deletion. *)
    let removed = Hashtbl.create 16 in
    List.iter
      (fun (u, v) ->
        let key = Edge_key.make u v in
        if Hashtbl.mem old_truss key then Hashtbl.replace removed key ())
      applied;
    let alive key =
      Hashtbl.mem old_truss key && (not (Hashtbl.mem removed key)) && Graph.mem_edge_key g key
    in
    (* Support of a truss edge counting only alive companions; always
       recomputed against the current removal set, so no cache to keep
       consistent. *)
    let support key =
      let u, v = Edge_key.endpoints key in
      let s = ref 0 in
      Graph.iter_common_neighbors g u v (fun w ->
          if alive (Edge_key.make u w) && alive (Edge_key.make v w) then incr s);
      !s
    in
    let queue = Queue.create () in
    let enqueue_partners u v =
      (* all alive truss edges that shared a triangle with (u, v): they just
         lost one supporting triangle *)
      let push key = if alive key then Queue.push key queue in
      Graph.iter_neighbors g u (fun w -> if w <> v then push (Edge_key.make u w));
      Graph.iter_neighbors g v (fun w -> if w <> u then push (Edge_key.make v w))
    in
    List.iter (fun (u, v) -> enqueue_partners u v) applied;
    while not (Queue.is_empty queue) do
      let key = Queue.pop queue in
      if alive key && support key < threshold then begin
        Hashtbl.replace removed key ();
        let u, v = Edge_key.endpoints key in
        enqueue_partners u v
      end
    done;
    finish (Hashtbl.fold (fun key () acc -> key :: acc) removed [])
  end

let insert_and_decompose g edges =
  List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g u v)) edges;
  Decompose.run g

(* ---------------------------------------------------------------------- *)
(* CSR-backed pure batch maintenance.

   The mutating entry points above are unusable under concurrent readers:
   they temporarily edit the shared [Graph.t].  The service layer instead
   works against a frozen {!Csr} snapshot plus a small functional overlay
   describing the batch — base adjacency minus deleted edges plus inserted
   ones — so the snapshot (and the graph it came from) is never touched. *)

module Overlay = struct
  type t = {
    csr : Csr.t;
    ins : (int, int list) Hashtbl.t;  (* endpoint -> inserted neighbors *)
    ins_set : (Edge_key.t, unit) Hashtbl.t;
    del_set : (Edge_key.t, unit) Hashtbl.t;
  }

  let make ~csr ~inserted ~deleted =
    let ins = Hashtbl.create 16 in
    let ins_set = Hashtbl.create 16 in
    let del_set = Hashtbl.create 16 in
    List.iter
      (fun (u, v) ->
        let key = Edge_key.make u v in
        if not (Hashtbl.mem ins_set key) then begin
          Hashtbl.replace ins_set key ();
          let add a b =
            Hashtbl.replace ins a (b :: Option.value ~default:[] (Hashtbl.find_opt ins a))
          in
          add u v;
          add v u
        end)
      inserted;
    List.iter (fun (u, v) -> Hashtbl.replace del_set (Edge_key.make u v) ()) deleted;
    { csr; ins; ins_set; del_set }

  let deleted t key = Hashtbl.mem t.del_set key

  let mem t u v =
    u <> v
    &&
    let key = Edge_key.make u v in
    Hashtbl.mem t.ins_set key
    || ((not (Hashtbl.mem t.del_set key)) && Csr.mem_edge t.csr u v)

  let iter_neighbors t u f =
    if Hashtbl.length t.del_set = 0 then Csr.iter_neighbors t.csr u f
    else
      Csr.iter_neighbors t.csr u (fun v ->
          if not (Hashtbl.mem t.del_set (Edge_key.make u v)) then f v);
    match Hashtbl.find_opt t.ins u with
    | None -> ()
    | Some vs -> List.iter f vs

  (* Upper bound on the post-batch degree, used only to pick the cheaper
     iteration side. *)
  let degree_hint t u =
    Csr.degree t.csr u
    + (match Hashtbl.find_opt t.ins u with Some l -> List.length l | None -> 0)

  let iter_common_neighbors t u v f =
    let a, b = if degree_hint t u <= degree_hint t v then (u, v) else (v, u) in
    iter_neighbors t a (fun w -> if w <> b && mem t b w then f w)

  let count_common_neighbors t u v =
    let c = ref 0 in
    iter_common_neighbors t u v (fun _ -> incr c);
    !c
end

type level_delta = { lvl_promoted : Edge_key.t list; lvl_demoted : Edge_key.t list }

(* One level of the batch: the k-truss delta going from the base graph G to
   (G \ deleted) ∪ inserted, computed in two exact phases — the deletion
   cascade of {!k_truss_after_delete} against the [ov_mid] view (G minus
   the deletions), then the region-grow-and-peel of {!k_truss_after_insert}
   against the [ov_full] view (deletions and insertions applied), with the
   deletion survivors as the unpeelable backdrop. *)
let level_delta_csr ~ov_mid ~ov_full ~tau ~k ~inserted ~deleted =
  let threshold = k - 2 in
  let in_old key = tau key >= k in
  (* Phase 1: deletion cascade on G \ D. *)
  let removed = Hashtbl.create 16 in
  if deleted <> [] then begin
    List.iter
      (fun (u, v) ->
        let key = Edge_key.make u v in
        if in_old key then Hashtbl.replace removed key ())
      deleted;
    let alive key =
      in_old key && (not (Hashtbl.mem removed key)) && not (Overlay.deleted ov_mid key)
    in
    let support key =
      let u, v = Edge_key.endpoints key in
      let s = ref 0 in
      Overlay.iter_common_neighbors ov_mid u v (fun w ->
          if alive (Edge_key.make u w) && alive (Edge_key.make v w) then incr s);
      !s
    in
    let queue = Queue.create () in
    let enqueue_partners u v =
      let push key = if alive key then Queue.push key queue in
      Overlay.iter_neighbors ov_mid u (fun w -> if w <> v then push (Edge_key.make u w));
      Overlay.iter_neighbors ov_mid v (fun w -> if w <> u then push (Edge_key.make v w))
    in
    List.iter (fun (u, v) -> enqueue_partners u v) deleted;
    while not (Queue.is_empty queue) do
      let key = Queue.pop queue in
      if alive key && support key < threshold then begin
        Hashtbl.replace removed key ();
        let u, v = Edge_key.endpoints key in
        enqueue_partners u v
      end
    done
  end;
  (* Phase 2: insertion growth + peel on (G \ D) ∪ I, with the deletion
     survivors as backdrop. *)
  let promoted =
    if inserted = [] then []
    else begin
      let in_mid key =
        in_old key && (not (Hashtbl.mem removed key)) && not (Overlay.deleted ov_full key)
      in
      let filter_cache = Hashtbl.create 256 in
      let passes key =
        match Hashtbl.find_opt filter_cache key with
        | Some b -> b
        | None ->
          let u, v = Edge_key.endpoints key in
          let b =
            in_mid key
            || (Overlay.mem ov_full u v
               && Overlay.count_common_neighbors ov_full u v >= threshold)
          in
          Hashtbl.replace filter_cache key b;
          b
      in
      let region = Hashtbl.create 64 in
      let queue = Queue.create () in
      let consider key =
        if (not (Hashtbl.mem region key)) && (not (in_mid key)) && passes key then begin
          Hashtbl.replace region key ();
          Queue.push key queue
        end
      in
      List.iter (fun (u, v) -> consider (Edge_key.make u v)) inserted;
      while not (Queue.is_empty queue) do
        let key = Queue.pop queue in
        let u, v = Edge_key.endpoints key in
        Overlay.iter_common_neighbors ov_full u v (fun w ->
            let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
            if passes e2 then consider e1;
            if passes e1 then consider e2)
      done;
      let present key = Hashtbl.mem region key || in_mid key in
      let sup = Hashtbl.create (max 16 (Hashtbl.length region)) in
      Hashtbl.iter
        (fun key () ->
          let u, v = Edge_key.endpoints key in
          let s = ref 0 in
          Overlay.iter_common_neighbors ov_full u v (fun w ->
              if present (Edge_key.make u w) && present (Edge_key.make v w) then incr s);
          Hashtbl.replace sup key !s)
        region;
      let removal = Queue.create () in
      let peeled = Hashtbl.create 64 in
      Hashtbl.iter (fun key s -> if s < threshold then Queue.push key removal) sup;
      while not (Queue.is_empty removal) do
        let key = Queue.pop removal in
        if not (Hashtbl.mem peeled key) then begin
          Hashtbl.replace peeled key ();
          let u, v = Edge_key.endpoints key in
          Overlay.iter_common_neighbors ov_full u v (fun w ->
              let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
              let alive e =
                in_mid e || (Hashtbl.mem region e && not (Hashtbl.mem peeled e))
              in
              if alive e1 && alive e2 then begin
                let decr e =
                  if Hashtbl.mem region e && not (Hashtbl.mem peeled e) then begin
                    let s = Hashtbl.find sup e in
                    Hashtbl.replace sup e (s - 1);
                    if s - 1 < threshold then Queue.push e removal
                  end
                in
                decr e1;
                decr e2
              end)
        end
      done;
      Hashtbl.fold
        (fun key () acc -> if Hashtbl.mem peeled key then acc else key :: acc)
        region []
    end
  in
  {
    lvl_promoted = promoted;
    lvl_demoted = Hashtbl.fold (fun key () acc -> key :: acc) removed [];
  }

type batch_result = {
  changes : (Edge_key.t * int option) list;
  levels : int;
  region_edges : int;
}

let c_levels = Obs.Counter.make "maintain.levels"
let c_region_edges = Obs.Counter.make "maintain.region_edges"

let batch_update_csr ~csr ~tau ~kmax ~inserted ~deleted =
  Obs.Span.with_ "truss.maintain_batch" (fun () ->
      let ov_mid = Overlay.make ~csr ~inserted:[] ~deleted in
      let ov_full = Overlay.make ~csr ~inserted ~deleted in
      let tau0 key = match tau key with Some t -> t | None -> 0 in
      (* promo: edge -> highest level it was promoted at; demo: edge ->
         lowest level it was demoted at.  Demotions are monotone upward
         (new trusses are nested), promotions downward, so these two
         numbers pin the edge's whole membership profile. *)
      let promo = Hashtbl.create 64 in
      let demo = Hashtbl.create 64 in
      let levels = ref 0 in
      let region_edges = ref 0 in
      let rec loop k =
        let d = level_delta_csr ~ov_mid ~ov_full ~tau:tau0 ~k ~inserted ~deleted in
        incr levels;
        region_edges := !region_edges + List.length d.lvl_promoted + List.length d.lvl_demoted;
        List.iter
          (fun key ->
            match Hashtbl.find_opt promo key with
            | Some p when p >= k -> ()
            | _ -> Hashtbl.replace promo key k)
          d.lvl_promoted;
        List.iter
          (fun key ->
            match Hashtbl.find_opt demo key with
            | Some p when p <= k -> ()
            | _ -> Hashtbl.replace demo key k)
          d.lvl_demoted;
        (* Stop once the new k-truss is empty: beyond the old kmax the only
           members are promotions, so an empty promotion level ends it. *)
        if k <= kmax || d.lvl_promoted <> [] then loop (k + 1)
      in
      if inserted <> [] || deleted <> [] then loop 3;
      let changed = Hashtbl.create 64 in
      List.iter (fun (u, v) -> Hashtbl.replace changed (Edge_key.make u v) `Deleted) deleted;
      let mark key = if not (Hashtbl.mem changed key) then Hashtbl.replace changed key `Live in
      List.iter (fun (u, v) -> mark (Edge_key.make u v)) inserted;
      Hashtbl.iter (fun key _ -> mark key) promo;
      Hashtbl.iter (fun key _ -> mark key) demo;
      let changes =
        Hashtbl.fold
          (fun key state acc ->
            match state with
            | `Deleted -> (key, None) :: acc
            | `Live ->
              let p = Option.value ~default:0 (Hashtbl.find_opt promo key) in
              let d = Option.value ~default:max_int (Hashtbl.find_opt demo key) in
              let from_old = min (tau0 key) (d - 1) in
              (key, Some (max 2 (max p from_old))) :: acc)
          changed []
      in
      Obs.Counter.add c_levels !levels;
      Obs.Counter.add c_region_edges !region_edges;
      { changes; levels = !levels; region_edges = !region_edges })
