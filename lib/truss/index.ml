open Graphcore

type t = {
  dec : Decompose.t;  (** the decomposition the index was built from, shared *)
  edges : Edge_key.t array;  (** sorted by trussness descending *)
  offsets : int array;  (** offsets.(k) = number of edges with tau >= k *)
  kmax : int;
}

(* Freeze the decomposition's trussness into the sorted-array / offset
   representation; the table itself stays in [dec]. *)
let build dec =
  let pairs = Array.make (Decompose.num_edges dec) (0, 0) in
  let i = ref 0 in
  Decompose.iter dec (fun key tau ->
      pairs.(!i) <- (tau, key);
      incr i);
  Array.sort (fun (t1, k1) (t2, k2) ->
      match Int.compare t2 t1 with 0 -> Edge_key.compare k1 k2 | c -> c)
    pairs;
  let kmax = Decompose.kmax dec in
  let offsets = Array.make (kmax + 2) 0 in
  (* count edges with tau >= k: sweep the sorted array *)
  Array.iter (fun (tau, _) -> for k = 2 to min tau (kmax + 1) do offsets.(k) <- offsets.(k) + 1 done) pairs;
  { dec; edges = Array.map snd pairs; offsets; kmax }

let of_deltas t ~changes = build (Decompose.patched t.dec ~changes)

let decompose t = t.dec

let trussness t key = Decompose.trussness_opt t.dec key

let kmax t = t.kmax

let truss_size t k =
  if k <= 2 then Array.length t.edges
  else if k > t.kmax then 0
  else t.offsets.(k)

let truss_edges t k =
  let n = truss_size t k in
  Array.to_list (Array.sub t.edges 0 n)

let k_class t k =
  if k > t.kmax || k < 2 then []
  else begin
    let upper = truss_size t k and inner = truss_size t (k + 1) in
    Array.to_list (Array.sub t.edges inner (upper - inner))
  end

let class_bounds t = List.init (max 0 (t.kmax - 1)) (fun i -> (i + 2, truss_size t (i + 2)))
