open Graphcore

type t = {
  graph : Graph.t;
  csr : Csr.t;
  index : Truss.Index.t;  (* holds the decomposition too *)
  generation : int;
  onion_memo : (int, (Edge_key.t * int) list * int) Hashtbl.t;
  memo_lock : Mutex.t;
}

let make ~graph ~csr ~index ~generation =
  { graph; csr; index; generation; onion_memo = Hashtbl.create 4; memo_lock = Mutex.create () }

let create ?(generation = 0) g =
  Obs.Span.with_ "service.epoch_build" (fun () ->
      let graph = Graph.copy g in
      let csr = Csr.of_graph graph in
      let index = Truss.Index.build (Truss.Decompose.of_csr csr) in
      make ~graph ~csr ~index ~generation)

let graph t = t.graph
let csr t = t.csr
let decompose t = Truss.Index.decompose t.index
let index t = t.index
let generation t = t.generation
let num_nodes t = Csr.num_nodes t.csr
let num_edges t = Csr.num_edges t.csr
let kmax t = Truss.Index.kmax t.index

let compute_onion t ~k =
  let dec = decompose t in
  let candidates = Truss.Decompose.k_class dec (k - 1) in
  match candidates with
  | [] -> ([], 0)
  | _ ->
    let backdrop = Truss.Decompose.truss_edge_table dec k in
    let h = Truss.Onion.build_h ~g:t.graph ~backdrop ~candidates in
    let res = Truss.Onion.peel ~h ~k ~candidates () in
    let layers =
      Hashtbl.fold (fun key layer acc -> (key, layer) :: acc) res.Truss.Onion.layer []
      |> List.sort (fun (k1, l1) (k2, l2) ->
             match Int.compare l1 l2 with 0 -> Edge_key.compare k1 k2 | c -> c)
    in
    (layers, res.Truss.Onion.max_layer)

let onion_layers t ~k =
  if k < 3 then ([], 0)
  else begin
    Mutex.lock t.memo_lock;
    let cached = Hashtbl.find_opt t.onion_memo k in
    Mutex.unlock t.memo_lock;
    match cached with
    | Some r -> r
    | None ->
      (* Computed outside the lock: [compute_onion] only reads the epoch
         (the peel runs on a fresh subgraph), so two domains racing here
         both produce the same answer and the second insert is a harmless
         overwrite. *)
      let r = Obs.Span.with_ "service.onion" (fun () -> compute_onion t ~k) in
      Mutex.lock t.memo_lock;
      Hashtbl.replace t.onion_memo k r;
      Mutex.unlock t.memo_lock;
      r
  end
