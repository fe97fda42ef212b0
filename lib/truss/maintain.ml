open Graphcore

type delta = { promoted : Edge_key.t list; new_size : int }

(* The frozen snapshot seen through one batch.  Snapshot edges keep their
   ids [0, m) and the batch's new edges get ids [m, m + p).  The kernels'
   flags are one byte per id, allocated once per view; a kernel call
   clears exactly the entries it set before returning, so one view serves
   any number of calls.  Integer state (supports, trussness, levels) lives
   in tables sized to what a batch touches: an O(m)-word array per batch
   costs more major-heap work than the region's whole peel. *)
type view = {
  csr : Csr.t;
  m : int;
  gone : Bytes.t;  (* snapshot edges the batch deletes; empty when it deletes none *)
  plan : (int, (int * int) list) Hashtbl.t;  (* endpoint -> (neighbor, id) of its new edges *)
  ends : (int * int) array;  (* endpoints of new edge m + i *)
  filter : Bytes.t;  (* support filter cache: '\000' not computed, '\001' passes, '\002' fails *)
  region : Bytes.t;
  peeled : Bytes.t;
}

let flag b e = Bytes.get b e <> '\000'
let set b e = Bytes.set b e '\001'
let clear b e = Bytes.set b e '\000'

let is_gone v e = Bytes.length v.gone > 0 && flag v.gone e

let plan_nbrs plan u = Option.value ~default:[] (Hashtbl.find_opt plan u)
let plan_edge plan u w = Option.value ~default:(-1) (List.assoc_opt w (plan_nbrs plan u))

(* Self-loops, duplicate pairs and pairs already in the snapshot are not
   new edges; deleted pairs absent from the snapshot are ignored. *)
let view csr ~inserted ~deleted =
  let m = Csr.num_edges csr in
  let gone = if deleted = [] then Bytes.empty else Bytes.make m '\000' in
  List.iter
    (fun (a, b) ->
      let e = Csr.edge_id csr a b in
      if e >= 0 then set gone e)
    deleted;
  let plan = Hashtbl.create 16 in
  let ends = ref [] and p = ref 0 in
  List.iter
    (fun (a, b) ->
      if a <> b && Csr.edge_id csr a b < 0 && plan_edge plan a b < 0 then begin
        let e = m + !p in
        incr p;
        Hashtbl.replace plan a ((b, e) :: plan_nbrs plan a);
        Hashtbl.replace plan b ((a, e) :: plan_nbrs plan b);
        ends := (a, b) :: !ends
      end)
    inserted;
  let scratch () = Bytes.make (m + !p) '\000' in
  { csr; m; gone; plan; ends = Array.of_list (List.rev !ends); filter = scratch ();
    region = scratch (); peeled = scratch () }

(* The same snapshot with only the deletions applied. *)
let deletions_only v = { v with plan = Hashtbl.create 1 }

let num_ids v = Bytes.length v.filter
let endpoints v e = if e < v.m then Csr.edge_endpoints v.csr e else v.ends.(e - v.m)

let key_of v e =
  let a, b = endpoints v e in
  Edge_key.make a b

(* Id of the live snapshot edge (a, b), or -1. *)
let snap_edge v a b =
  let e = Csr.edge_id v.csr a b in
  if e >= 0 && is_gone v e then -1 else e

(* [f w e_aw e_bw] once per triangle {a, b, w} of the view.  A node's
   snapshot and plan neighbors are disjoint, so the snapshot intersection
   and the two plan-side probes never meet the same w.  Without deletions
   the intersection runs unfiltered: it is the scorer's innermost loop. *)
let iter_common v a b f =
  if Bytes.length v.gone = 0 then Csr.iter_common_neighbors_eid v.csr a b f
  else
    Csr.iter_common_neighbors_eid v.csr a b (fun w e1 e2 ->
        if not (flag v.gone e1 || flag v.gone e2) then f w e1 e2);
  List.iter
    (fun (w, e_aw) ->
      if w <> b then begin
        let e_bw = snap_edge v b w in
        let e_bw = if e_bw >= 0 then e_bw else plan_edge v.plan b w in
        if e_bw >= 0 then f w e_aw e_bw
      end)
    (plan_nbrs v.plan a);
  List.iter
    (fun (w, e_bw) ->
      if w <> a then begin
        let e_aw = snap_edge v a w in
        if e_aw >= 0 then f w e_aw e_bw
      end)
    (plan_nbrs v.plan b)

(* Insertions only grow the k-truss, and every promoted edge is
   triangle-connected, through triangles inside the new truss, to a new
   edge.  So grow a region from the new edges over triangles whose edges
   all pass the membership filter (support >= k - 2 in the view, or
   backdrop), then peel it with the [backdrop] edges fixed.  Returns the
   region's survivors. *)
let promote v ~k ~backdrop =
  let threshold = k - 2 in
  let filtered = ref [] in
  let passes e =
    if not (flag v.filter e) then begin
      let ok =
        backdrop e
        ||
        let a, b = endpoints v e in
        let s = ref 0 in
        iter_common v a b (fun _ _ _ -> incr s);
        !s >= threshold
      in
      Bytes.set v.filter e (if ok then '\001' else '\002');
      filtered := e :: !filtered
    end;
    Bytes.get v.filter e = '\001'
  in
  let members = ref [] in
  let queue = Queue.create () in
  let consider e =
    if (not (flag v.region e)) && (not (backdrop e)) && passes e then begin
      set v.region e;
      members := e :: !members;
      Queue.push e queue
    end
  in
  for e = v.m to num_ids v - 1 do
    consider e
  done;
  while not (Queue.is_empty queue) do
    let a, b = endpoints v (Queue.pop queue) in
    iter_common v a b (fun _ e1 e2 ->
        if passes e2 then consider e1;
        if passes e1 then consider e2)
  done;
  (* Supports count triangles whose other two edges are alive: backdrop,
     or in the region and not yet peeled. *)
  let alive e = backdrop e || (flag v.region e && not (flag v.peeled e)) in
  let sup = Hashtbl.create 64 in
  let removal = Queue.create () in
  List.iter
    (fun e ->
      let a, b = endpoints v e in
      let s = ref 0 in
      iter_common v a b (fun _ e1 e2 -> if alive e1 && alive e2 then incr s);
      Hashtbl.replace sup e !s;
      if !s < threshold then Queue.push e removal)
    !members;
  while not (Queue.is_empty removal) do
    let e = Queue.pop removal in
    if not (flag v.peeled e) then begin
      set v.peeled e;
      let a, b = endpoints v e in
      iter_common v a b (fun _ e1 e2 ->
          if alive e1 && alive e2 then begin
            let drop e' =
              if flag v.region e' && not (flag v.peeled e') then begin
                let s = Hashtbl.find sup e' - 1 in
                Hashtbl.replace sup e' s;
                if s < threshold then Queue.push e' removal
              end
            in
            drop e1;
            drop e2
          end)
    end
  done;
  let promoted = List.filter (fun e -> not (flag v.peeled e)) !members in
  List.iter (clear v.filter) !filtered;
  List.iter
    (fun e ->
      clear v.region e;
      clear v.peeled e)
    !members;
  promoted

(* Deletions only shrink the k-truss, and an old-truss edge loses support
   only when a triangle partner goes, so cascade from the neighbors of the
   [deleted] snapshot ids: any [in_old] edge whose support among the
   surviving [in_old] edges falls below k - 2 is demoted, and its own
   neighbors are examined in turn.  Returns the demoted ids, deleted
   [in_old] edges included. *)
let demote v ~k ~in_old ~deleted =
  let threshold = k - 2 in
  let alive e = in_old e && not (flag v.peeled e || is_gone v e) in
  let demoted = ref [] in
  let queue = Queue.create () in
  let drop e =
    set v.peeled e;
    demoted := e :: !demoted
  in
  let push_partners e =
    let a, b = Csr.edge_endpoints v.csr e in
    let push _ e' = if alive e' then Queue.push e' queue in
    Csr.iter_neighbors_eid v.csr a push;
    Csr.iter_neighbors_eid v.csr b push
  in
  List.iter (fun e -> if in_old e then drop e) deleted;
  List.iter push_partners deleted;
  while not (Queue.is_empty queue) do
    let e = Queue.pop queue in
    if alive e then begin
      let a, b = Csr.edge_endpoints v.csr e in
      let s = ref 0 in
      iter_common v a b (fun _ e1 e2 -> if alive e1 && alive e2 then incr s);
      if !s < threshold then begin
        drop e;
        push_partners e
      end
    end
  done;
  List.iter (clear v.peeled) !demoted;
  !demoted

let k_truss_after_insert_csr ~csr ~old_truss ~k ~inserted =
  let v = view csr ~inserted ~deleted:[] in
  let old_size = Array.fold_left (fun n b -> if b then n + 1 else n) 0 old_truss in
  let promoted = promote v ~k ~backdrop:(fun e -> e < v.m && old_truss.(e)) in
  { promoted = List.map (key_of v) promoted; new_size = old_size + List.length promoted }

type batch_result = {
  changes : (Edge_key.t * int option) list;
  levels : int;
  region_edges : int;
}

let c_levels = Obs.Counter.make "maintain.levels"
let c_region_edges = Obs.Counter.make "maintain.region_edges"

let batch_update_csr ~csr ~tau ~kmax ~inserted ~deleted =
  Obs.Span.with_ "truss.maintain_batch" (fun () ->
      let full = view csr ~inserted ~deleted in
      let mid = deletions_only full in
      let deleted =
        List.filter_map
          (fun (a, b) ->
            let e = Csr.edge_id csr a b in
            if e >= 0 then Some e else None)
          deleted
      in
      (* τ of each id the batch touches, read once. *)
      let tau_of = Hashtbl.create 256 in
      let tau0 e =
        match Hashtbl.find_opt tau_of e with
        | Some t -> t
        | None ->
          let t = if e < full.m then Option.value ~default:0 (tau (Csr.edge_key csr e)) else 0 in
          Hashtbl.add tau_of e t;
          t
      in
      (* promo: id -> highest level it was promoted at; demo: id -> lowest
         level it was demoted at.  Demotions are monotone upward (new
         trusses are nested), promotions downward, so these two numbers pin
         the edge's whole membership profile — and an edge with τ >= k is
         demoted at level k exactly when its lowest demotion level is <= k. *)
      let promo = Hashtbl.create 64 and demo = Hashtbl.create 64 in
      let promo_of e = Option.value ~default:0 (Hashtbl.find_opt promo e) in
      let demo_of e = Option.value ~default:max_int (Hashtbl.find_opt demo e) in
      let changed = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace changed e ()) deleted;
      for e = full.m to num_ids full - 1 do
        Hashtbl.replace changed e ()
      done;
      let levels = ref 0 and region_edges = ref 0 in
      let rec loop k =
        let in_old e = tau0 e >= k in
        let demoted = demote mid ~k ~in_old ~deleted in
        List.iter
          (fun e ->
            Hashtbl.replace changed e ();
            if demo_of e > k then Hashtbl.replace demo e k)
          demoted;
        let promoted = promote full ~k ~backdrop:(fun e -> in_old e && demo_of e > k) in
        List.iter
          (fun e ->
            Hashtbl.replace changed e ();
            Hashtbl.replace promo e k)
          promoted;
        incr levels;
        region_edges := !region_edges + List.length promoted + List.length demoted;
        (* Stop once the new k-truss is empty: beyond the old kmax the only
           members are promotions, so an empty promotion level ends it. *)
        if k <= kmax || promoted <> [] then loop (k + 1)
      in
      if inserted <> [] || deleted <> [] then loop 3;
      let changes =
        Hashtbl.fold
          (fun e () acc ->
            if e < full.m && is_gone full e then (key_of full e, None) :: acc
            else
              let from_old = min (tau0 e) (demo_of e - 1) in
              (key_of full e, Some (max 2 (max (promo_of e) from_old))) :: acc)
          changed []
      in
      Obs.Counter.add c_levels !levels;
      Obs.Counter.add c_region_edges !region_edges;
      { changes; levels = !levels; region_edges = !region_edges })
