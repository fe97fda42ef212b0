open Graphcore

type outcome = {
  plan : (int * int) list;
  clique_fallbacks : int;
  greedy_fallbacks : int;
}

let csup ~h targets =
  (* Intersect on [h] directly: a snapshot of [h] costs more than the few
     hundred intersections it would speed up. *)
  let tbl = Hashtbl.create (max (List.length targets) 1) in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace tbl key (Graph.count_common_neighbors h u v))
    targets;
  tbl

(* Candidate new edges able to raise the support of [e] inside [h]: connect
   one endpoint of [e] to a neighbor of the other endpoint. *)
let candidates_for ~g ~h key =
  let u, v = Edge_key.endpoints key in
  let acc = ref [] in
  let try_edge a b =
    if a <> b && (not (Graph.mem_edge h a b)) && not (Graph.mem_edge g a b) then
      acc := Edge_key.make a b :: !acc
  in
  Graph.iter_neighbors h v (fun w -> if w <> u then try_edge u w);
  Graph.iter_neighbors h u (fun w -> if w <> v then try_edge v w);
  !acc

(* Unstable targets whose support a candidate (y,z) raises: the target edges
   among {(x,y), (x,z)} for common neighbors x. *)
let coverage ~h ~unstable key =
  let y, z = Edge_key.endpoints key in
  let c = ref 0 in
  Graph.iter_common_neighbors h y z (fun x ->
      if Hashtbl.mem unstable (Edge_key.make x y) then incr c;
      if Hashtbl.mem unstable (Edge_key.make x z) then incr c);
  !c

let apply_insertion ~h ~sup ~unstable ~threshold key =
  let y, z = Edge_key.endpoints key in
  ignore (Graph.add_edge h y z);
  Graph.iter_common_neighbors h y z (fun x ->
      let bump e =
        match Hashtbl.find_opt sup e with
        | Some s ->
          Hashtbl.replace sup e (s + 1);
          if s + 1 >= threshold then Hashtbl.remove unstable e
        | None -> ()
      in
      bump (Edge_key.make x y);
      bump (Edge_key.make x z))

(* Greedy covering pass: insert the stable candidate covering the most
   unstable targets, repeat until nothing helps.  Lazy greedy: coverage
   only shrinks as targets stabilize, so a stale max-heap refreshed at the
   top finds each round's winner with a handful of re-evaluations. *)
let greedy_cover ~g ~h ~sup ~unstable ~threshold ~require_stable =
  let cmp (c1, s1, k1) (c2, s2, k2) =
    match Int.compare c2 c1 with
    | 0 -> ( match Int.compare s2 s1 with 0 -> Edge_key.compare k1 k2 | c -> c)
    | c -> c
  in
  let heap = Min_heap.create ~cmp in
  let queued = Hashtbl.create 256 in
  let offer cand =
    if not (Hashtbl.mem queued cand) then begin
      Hashtbl.replace queued cand ();
      let y, z = Edge_key.endpoints cand in
      let own_support = Graph.count_common_neighbors h y z in
      if (not require_stable) || own_support >= threshold then begin
        let cov = coverage ~h ~unstable cand in
        if cov > 0 then Min_heap.push heap (cov, own_support, cand)
      end
    end
  in
  Hashtbl.iter (fun target () -> List.iter offer (candidates_for ~g ~h target)) unstable;
  let plan = ref [] in
  let continue = ref true in
  while !continue && Hashtbl.length unstable > 0 do
    match Min_heap.pop heap with
    | None -> continue := false
    | Some (_, _, cand) when Graph.mem_edge_key h cand -> ()
    | Some (stale_cov, _, cand) ->
      let y, z = Edge_key.endpoints cand in
      let own_support = Graph.count_common_neighbors h y z in
      let fresh =
        if require_stable && own_support < threshold then 0
        else coverage ~h ~unstable cand
      in
      if fresh = 0 then () (* drop *)
      else begin
        let next = match Min_heap.peek heap with Some (c, _, _) -> c | None -> 0 in
        if fresh >= next || fresh = stale_cov then begin
          plan := cand :: !plan;
          apply_insertion ~h ~sup ~unstable ~threshold cand;
          (* The new edge both creates fresh candidates and can raise the
             support/coverage of previously rejected ones around its
             endpoints — re-offer them (duplicates in the heap are harmless:
             committed edges are skipped at pop). *)
          Hashtbl.iter
            (fun target () ->
              let u, v = Edge_key.endpoints target in
              if u = y || u = z || v = y || v = z then
                List.iter
                  (fun c ->
                    Hashtbl.remove queued c;
                    offer c)
                  (candidates_for ~g ~h target))
            unstable
        end
        else Min_heap.push heap (fresh, own_support, cand)
      end
  done;
  List.rev !plan

(* Clique strategy: recruit k-2 extra nodes maximizing existing adjacency to
   the growing set, then add every missing pair — a k-clique is the smallest
   k-truss, so the target edge is certainly converted.  Ties go to the
   smallest pool id.  Adjacency counts grow incrementally — each recruit
   bumps its [h]-neighbors — so a round looks only at counted nodes and
   falls back to the smallest free pool node when none is counted. *)
let clique_plan ~g ~h ~k ~pool key =
  let u, v = Edge_key.endpoints key in
  let chosen = ref [ u; v ] in
  let free w = not (List.mem w !chosen) in
  let in_pool w =
    let lo = ref 0 and hi = ref (Array.length pool) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pool.(mid) < w then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length pool && pool.(!lo) = w
  in
  let count = Hashtbl.create 64 in
  let recruit x =
    Graph.iter_neighbors h x (fun w ->
        if in_pool w then
          Hashtbl.replace count w (1 + Option.value ~default:0 (Hashtbl.find_opt count w)))
  in
  recruit u;
  recruit v;
  let next_free = ref 0 in
  for _ = 1 to k - 2 do
    let best =
      Hashtbl.fold
        (fun w c acc ->
          if not (free w) then acc
          else
            match acc with
            | Some (bc, bw) when bc > c || (bc = c && bw < w) -> acc
            | _ -> Some (c, w))
        count None
    in
    let pick =
      match best with
      | Some (_, w) -> Some w
      | None ->
        while !next_free < Array.length pool && not (free pool.(!next_free)) do
          incr next_free
        done;
        if !next_free < Array.length pool then Some pool.(!next_free) else None
    in
    Option.iter
      (fun w ->
        chosen := w :: !chosen;
        recruit w)
      pick
  done;
  if List.length !chosen < k then None
  else begin
    let missing = ref [] in
    let rec pairs = function
      | [] -> ()
      | x :: rest ->
        List.iter
          (fun y ->
            if (not (Graph.mem_edge h x y)) && not (Graph.mem_edge g x y) then
              missing := Edge_key.make x y :: !missing)
          rest;
        pairs rest
    in
    pairs !chosen;
    Some (List.sort_uniq Edge_key.compare !missing)
  end

(* Cascading greedy: allow unstable candidates; freshly inserted edges
   become targets themselves.  Bounded, and simulated on [h] itself: every
   simulated insertion is a new edge of [h] and comes out again before
   returning, exceptions included, so a blow-up costs nothing. *)
let greedy_cascade ~g ~h ~k ~target_key =
  let threshold = k - 2 in
  let sup = Hashtbl.create 16 in
  let unstable = Hashtbl.create 16 in
  let plan = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun key ->
          let u, v = Edge_key.endpoints key in
          ignore (Graph.remove_edge h u v))
        !plan)
  @@ fun () ->
  let add_target key =
    let u, v = Edge_key.endpoints key in
    let s = Graph.count_common_neighbors h u v in
    Hashtbl.replace sup key s;
    if s < threshold then Hashtbl.replace unstable key ()
  in
  add_target target_key;
  let steps = ref 0 in
  let cap = 6 * k in
  let failed = ref false in
  while (not !failed) && Hashtbl.length unstable > 0 do
    incr steps;
    if !steps > cap then failed := true
    else begin
      let best = ref None in
      Hashtbl.iter
        (fun t () ->
          List.iter
            (fun cand ->
              let cov = coverage ~h ~unstable cand in
              if cov > 0 then
                match !best with
                | Some (bc, bk) when bc > cov || (bc = cov && Edge_key.compare bk cand <= 0) -> ()
                | _ -> best := Some (cov, cand))
            (candidates_for ~g ~h t))
        unstable;
      match !best with
      | None -> failed := true
      | Some (_, cand) ->
        plan := cand :: !plan;
        apply_insertion ~h ~sup ~unstable ~threshold cand;
        (* The inserted edge must itself survive into the truss. *)
        add_target cand
    end
  done;
  if !failed then None else Some (List.rev !plan)

let c_conversions = Obs.Counter.make "convert.conversions"

let convert ~ctx ~target () =
  Obs.Span.with_ "convert.convert" @@ fun () ->
  Obs.Counter.incr c_conversions;
  let g = ctx.Score.g and k = ctx.Score.k in
  let threshold = k - 2 in
  (* Determinism: the outcome must depend on the target as a set, not on
     the order the caller enumerated it in. *)
  let target = List.sort_uniq Edge_key.compare target in
  let h = Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:target in
  (* Clique recruits: the local subgraph's nodes, their graph neighbors,
     and — when the component sits in a sparse corner with too few of
     either — arbitrary further graph nodes, so a k-clique can always be
     completed. *)
  let seen = Hashtbl.create 64 in
  Graph.iter_nodes h (fun v -> Hashtbl.replace seen v ());
  Graph.iter_nodes h (fun v -> Graph.iter_neighbors g v (fun w -> Hashtbl.replace seen w ()));
  if Hashtbl.length seen < 2 * k then begin
    try
      Graph.iter_nodes g (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            if Hashtbl.length seen >= 2 * k then raise Exit
          end)
    with Exit -> ()
  end;
  let pool =
    Array.of_list (List.sort_uniq Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) seen []))
  in
  let sup = csup ~h target in
  let unstable = Hashtbl.create 16 in
  Hashtbl.iter (fun key s -> if s < threshold then Hashtbl.replace unstable key ()) sup;
  let plan = ref (greedy_cover ~g ~h ~sup ~unstable ~threshold ~require_stable:true) in
  let clique_fallbacks = ref 0 and greedy_fallbacks = ref 0 in
  (* Stragglers: cheapest of the two strategies, applied one target at a
     time (earlier fixes can stabilize later stragglers for free). *)
  let stragglers = Hashtbl.fold (fun key () acc -> key :: acc) unstable [] in
  List.iter
    (fun key ->
      if Hashtbl.mem unstable key then begin
        let cascade = greedy_cascade ~g ~h ~k ~target_key:key in
        let clique = clique_plan ~g ~h ~k ~pool key in
        let chosen =
          match (cascade, clique) with
          | Some a, Some b -> if List.length a <= List.length b then (a, `Greedy) else (b, `Clique)
          | Some a, None -> (a, `Greedy)
          | None, Some b -> (b, `Clique)
          | None, None -> ([], `Greedy)
        in
        match chosen with
        | [], _ -> ()
        | edges, which ->
          (match which with
          | `Greedy -> incr greedy_fallbacks
          | `Clique -> incr clique_fallbacks);
          List.iter
            (fun cand ->
              if not (Graph.mem_edge_key h cand) then begin
                plan := cand :: !plan;
                apply_insertion ~h ~sup ~unstable ~threshold cand
              end)
            edges
      end)
    (List.sort Edge_key.compare stragglers);
  {
    plan = List.map Edge_key.endpoints (List.sort_uniq Edge_key.compare !plan);
    clique_fallbacks = !clique_fallbacks;
    greedy_fallbacks = !greedy_fallbacks;
  }
