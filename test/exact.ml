open Graphcore

type result = { score : int; inserted : Edge_key.t list; explored : int }

let default_pool g =
  let nodes = ref [] in
  Graph.iter_nodes g (fun v -> nodes := v :: !nodes);
  let nodes = Array.of_list !nodes in
  let acc = ref [] in
  Array.iteri
    (fun i u ->
      Array.iteri
        (fun j v -> if i < j && not (Graph.mem_edge g u v) then acc := Edge_key.make u v :: !acc)
        nodes)
    nodes;
  List.sort Edge_key.compare !acc

let pool_size ~g = List.length (default_pool g)

(* Number of subsets of size <= b of an n-element pool, saturating. *)
let search_space n b =
  let rec choose acc c k =
    if k > b then acc
    else begin
      let c = c * (n - k + 1) / k in
      if acc + c > 1_000_000_000 then max_int else choose (acc + c) c (k + 1)
    end
  in
  choose 1 1 1

let optimum ~g ~k ~budget ?pool ?(max_sets = 2_000_000) () =
  let pool = match pool with Some p -> p | None -> default_pool g in
  let pool = Array.of_list pool in
  let n = Array.length pool in
  if search_space n budget > max_sets then
    invalid_arg
      (Printf.sprintf "Exact.optimum: search space too large (%d candidates, budget %d)" n
         budget);
  let ctx = Maxtruss.Score.make_ctx g ~k in
  let best_score = ref 0 and best_set = ref [] in
  let explored = ref 0 in
  (* DFS over index-increasing subsets. *)
  let rec go idx chosen remaining =
    incr explored;
    if chosen <> [] then begin
      let s = Maxtruss.Score.score ctx (List.map Edge_key.endpoints chosen) in
      if s > !best_score then begin
        best_score := s;
        best_set := chosen
      end
    end;
    if remaining > 0 then
      for i = idx to n - 1 do
        go (i + 1) (pool.(i) :: chosen) (remaining - 1)
      done
  in
  go 0 [] budget;
  { score = !best_score; inserted = List.sort Edge_key.compare !best_set; explored = !explored }
