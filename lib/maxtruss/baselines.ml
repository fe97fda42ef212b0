open Graphcore

let rd ~rng ~g ~k ~budget =
  Outcome.timed ~original:g ~k (fun ~csr:_ ~dec ->
      let klass = Truss.Decompose.k_class dec (k - 1) in
      if klass = [] then ([], false)
      else begin
        let pool = Candidate.stable_pool ~g ~component:klass ~k () in
        let chosen = Rng.sample_without_replacement rng budget pool in
        (Array.to_list chosen |> List.map Edge_key.endpoints, false)
      end)

(* GTM's state for one component: the immutable scoring context, a copy
   of its neighborhood graph grown by the commits (for the candidate pools,
   the tie-break supports and the committed check), the committed plan and
   its score. *)
type gtm_local = {
  lctx : Score.ctx;
  lg : Graph.t;
  mutable committed : (int * int) list;
  mutable base : int;
}

(* GTM's candidate budget, shared by the components' pools: each keeps
   max 20 (gtm_candidates / components) of its highest-support pairs. *)
let gtm_candidates = 400

let gtm ~g ~k ~budget ?(time_limit_s = 120.0) () =
  Outcome.timed ~original:g ~k (fun ~csr ~dec ->
      let start = Unix.gettimeofday () in
      let over_time () = Unix.gettimeofday () -. start > time_limit_s in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      if comps = [] then ([], false)
      else begin
        (* Gains are evaluated per component against its local
           neighborhood — triangle-connectivity independence makes that
           exact.  Inserting edges only grows the k-truss, so the gain of a
           candidate after committing C is score (C ∪ {key}) − score C. *)
        let ctx0 = Score.ctx_of_dec g csr dec ~k in
        let locals =
          Array.of_list
            (List.map
               (fun c ->
                 let lctx = Score.local_ctx ctx0 ~component:c in
                 { lctx; lg = Graph.copy lctx.Score.g; committed = []; base = 0 })
               comps)
        in
        let n_comps = Array.length locals in
        let per_comp = max 20 (gtm_candidates / n_comps) in
        let gain_of l key = Score.score l.lctx (Edge_key.endpoints key :: l.committed) - l.base in
        (* Lazy greedy: gains only shrink slowly as the graph grows, so a
           stale heap refreshed at the top commits the right edge with a
           handful of re-evaluations per step (the "candidate pruning" role
           of the original GTM). *)
        let cmp (g1, s1, _, k1) (g2, s2, _, k2) =
          match Int.compare g2 g1 with
          | 0 -> ( match Int.compare s2 s1 with 0 -> Edge_key.compare k1 k2 | c -> c)
          | c -> c
        in
        let heap = Min_heap.create ~cmp in
        let seed_deadline = ref false in
        List.iteri
          (fun ci comp ->
            if not !seed_deadline then begin
              let l = locals.(ci) in
              let pool =
                Candidate.stable_pool ~g:l.lg ~component:comp ~k ~max_size:per_comp ~forbidden:g ()
              in
              Array.iter
                (fun key ->
                  if not !seed_deadline then begin
                    if over_time () then seed_deadline := true
                    else begin
                      let u, v = Edge_key.endpoints key in
                      let sup = Graph.count_common_neighbors l.lg u v in
                      Min_heap.push heap (gain_of l key, sup, ci, key)
                    end
                  end)
                pool
            end)
          comps;
        (* A pair can sit in several components' pools: commit it once. *)
        let committed = Hashtbl.create 64 in
        let chosen = ref [] in
        let n_chosen = ref 0 in
        let timed_out = ref !seed_deadline in
        let continue = ref true in
        while !continue && !n_chosen < budget && not !timed_out do
          if over_time () then timed_out := true
          else
            match Min_heap.pop heap with
            | None -> continue := false
            | Some (_, _, _, key) when Hashtbl.mem committed key -> ()
            | Some (_, _, ci, key) ->
              let l = locals.(ci) in
              let fresh = gain_of l key in
              let next_gain =
                match Min_heap.peek heap with Some (ng, _, _, _) -> ng | None -> min_int
              in
              let u, v = Edge_key.endpoints key in
              if fresh >= next_gain then begin
                ignore (Graph.add_edge l.lg u v);
                Hashtbl.replace committed key ();
                l.committed <- (u, v) :: l.committed;
                l.base <- l.base + fresh;
                chosen := (u, v) :: !chosen;
                incr n_chosen
              end
              else Min_heap.push heap (fresh, Graph.count_common_neighbors l.lg u v, ci, key)
        done;
        (List.rev !chosen, !timed_out)
      end)

let revenues_of_dec ~g ~csr ~dec ~k ~budget =
  let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
  let ctx = Score.ctx_of_dec g csr dec ~k in
  let revenue comp =
    let conv = Convert.convert ~ctx ~target:comp () in
    if conv.Convert.plan = [] || List.length conv.Convert.plan > budget then []
    else begin
      (* Component-local scoring: exact when components are independent
         (the DP's own premise), and the same yardstick PCFR uses. *)
      let lctx = Score.local_ctx ctx ~component:comp in
      let score = Score.score lctx conv.Convert.plan in
      if score <= 0 then []
      else [ Plan.make ~inserted:(Score.keys_of_pairs conv.Convert.plan) ~score ]
    end
  in
  Array.of_list (List.map revenue comps)

let cbtm_revenues ~g ~k ~budget =
  let csr = Csr.of_graph g in
  revenues_of_dec ~g ~csr ~dec:(Truss.Decompose.of_csr csr) ~k ~budget

let cbtm ~g ~k ~budget =
  Outcome.timed ~original:g ~k (fun ~csr ~dec ->
      let revenues = revenues_of_dec ~g ~csr ~dec ~k ~budget in
      let alloc = Dp.binary ~revenues ~budget in
      let inserted =
        List.concat_map
          (fun (_, (p : Plan.pair)) -> Score.pairs_of_keys p.inserted)
          alloc.Dp.chosen
        |> List.sort_uniq compare
      in
      (inserted, false))
