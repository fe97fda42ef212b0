open Graphcore

type op = Insert of int * int | Delete of int * int

type outcome = {
  epoch : Epoch.t;
  inserted : int;
  deleted : int;
  ignored : int;
  fallback : bool;
  levels : int;
  region_edges : int;
}

let c_batches = Obs.Counter.make "service.batches"
let c_fallbacks = Obs.Counter.make "service.maintain_fallbacks"

(* Obs counters are no-ops while collection is disabled; the stats request
   must report fallbacks unconditionally, so keep a plain atomic too. *)
let fallbacks = Atomic.make 0

let fallback_count () = Atomic.get fallbacks
let c_inserted = Obs.Counter.make "service.edges_inserted"
let c_deleted = Obs.Counter.make "service.edges_deleted"

let valid_pair u v = u <> v && u >= 0 && v >= 0 && u < Edge_key.max_node && v < Edge_key.max_node

(* Replay the ops in order against the snapshot, folding them into the net
   insertion/deletion sets [batch_update_csr] requires: insertions absent
   from the snapshot, deletions present in it, disjoint, duplicate-free.
   An insert of a snapshot edge deleted earlier in the batch cancels the
   deletion (net no-op), and vice versa. *)
let normalize epoch ops =
  let g = Epoch.graph epoch in
  let state = Hashtbl.create 64 in
  let ignored = ref 0 in
  List.iter
    (fun op ->
      let u, v, inserting = match op with Insert (u, v) -> (u, v, true) | Delete (u, v) -> (u, v, false) in
      if not (valid_pair u v) then incr ignored
      else begin
        let key = Edge_key.make u v in
        let in_snapshot = Graph.mem_edge g u v in
        let present =
          match Hashtbl.find_opt state key with
          | Some `Ins -> true
          | Some `Del -> false
          | None -> in_snapshot
        in
        if present = inserting then incr ignored
        else if inserting then
          if in_snapshot then Hashtbl.remove state key (* cancels an earlier delete *)
          else Hashtbl.replace state key `Ins
        else if in_snapshot then Hashtbl.replace state key `Del
        else Hashtbl.remove state key (* cancels an earlier insert *)
      end)
    ops;
  let ins, del =
    Hashtbl.fold
      (fun key side (ins, del) ->
        let uv = Edge_key.endpoints key in
        match side with `Ins -> (uv :: ins, del) | `Del -> (ins, uv :: del))
      state ([], [])
  in
  let by_key (a, b) (c, d) = Edge_key.compare (Edge_key.make a b) (Edge_key.make c d) in
  (List.sort by_key ins, List.sort by_key del, !ignored)

(* Batches whose net changes exceed this fraction of the epoch's edges
   rebuild instead of maintaining. *)
let fallback_fraction = 0.25

let next_graph base ~ins ~del =
  let g = Graph.copy base in
  let added = Graph.add_edges g ins in
  let removed = Graph.remove_edges g del in
  assert (added = List.length ins && removed = List.length del);
  g

let apply store ops =
  Obs.Span.with_ "service.mutate_batch" (fun () ->
      Obs.Counter.incr c_batches;
      let result = ref None in
      let _epoch =
        Store.publish store ~build:(fun epoch ->
            let ins, del, ignored = normalize epoch ops in
            let generation = Epoch.generation epoch + 1 in
            let next =
              if ins = [] && del = [] then
                (* Pure no-op batch: share every structure, just restamp. *)
                let e =
                  Epoch.make ~graph:(Epoch.graph epoch) ~csr:(Epoch.csr epoch)
                    ~index:(Epoch.index epoch) ~generation
                in
                (e, false, 0, 0)
              else begin
                let m = Epoch.num_edges epoch in
                let changed = List.length ins + List.length del in
                let threshold = fallback_fraction *. float_of_int (max m 1) in
                let graph = next_graph (Epoch.graph epoch) ~ins ~del in
                if float_of_int changed > threshold then begin
                  Obs.Counter.incr c_fallbacks;
                  Atomic.incr fallbacks;
                  let e =
                    Obs.Span.with_ "service.full_rebuild" (fun () ->
                        let csr = Csr.of_graph graph in
                        let index = Truss.Index.build (Truss.Decompose.of_csr csr) in
                        Epoch.make ~graph ~csr ~index ~generation)
                  in
                  (e, true, 0, 0)
                end
                else begin
                  let dec0 = Epoch.decompose epoch in
                  let r =
                    Truss.Maintain.batch_update_csr ~csr:(Epoch.csr epoch)
                      ~tau:(Truss.Decompose.trussness_opt dec0)
                      ~kmax:(Truss.Decompose.kmax dec0) ~inserted:ins ~deleted:del
                  in
                  let index =
                    Truss.Index.of_deltas (Epoch.index epoch) ~changes:r.Truss.Maintain.changes
                  in
                  let csr = Csr.of_graph graph in
                  let e = Epoch.make ~graph ~csr ~index ~generation in
                  (e, false, r.Truss.Maintain.levels, r.Truss.Maintain.region_edges)
                end
              end
            in
            let e, fallback, levels, region_edges = next in
            Obs.Counter.add c_inserted (List.length ins);
            Obs.Counter.add c_deleted (List.length del);
            result :=
              Some
                {
                  epoch = e;
                  inserted = List.length ins;
                  deleted = List.length del;
                  ignored;
                  fallback;
                  levels;
                  region_edges;
                };
            e)
      in
      match !result with Some r -> r | None -> assert false)
