open Graphcore

type pair = { inserted : Edge_key.t list; cost : int; score : int }

type revenue = pair list

let make ~inserted ~score =
  let inserted = List.sort_uniq Edge_key.compare inserted in
  { inserted; cost = List.length inserted; score }

(* Menus longer than this are thinned. *)
let menu_cap = 120

let thin pairs =
  let n = List.length pairs in
  if n <= menu_cap then pairs
  else begin
    (* Keep an even spread, always including the first and last plans. *)
    let arr = Array.of_list pairs in
    let picked = ref [] in
    for i = menu_cap - 1 downto 0 do
      let idx = i * (n - 1) / (menu_cap - 1) in
      picked := arr.(idx) :: !picked
    done;
    List.sort_uniq (fun a b -> Int.compare a.cost b.cost) !picked
  end

let normalize pairs =
  let pairs = List.filter (fun p -> p.cost >= 1 && p.score >= 1) pairs in
  (* Cheapest first; among equal costs the best score first, so the fold
     keeps the first pair seen per cost. *)
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare a.cost b.cost with 0 -> Int.compare b.score a.score | c -> c)
      pairs
  in
  let dedup =
    List.fold_left
      (fun acc p ->
        match acc with
        | q :: _ when q.cost = p.cost -> acc
        | _ -> p :: acc)
      [] sorted
    |> List.rev
  in
  (* Strictly increasing score: a costlier plan must strictly beat every
     cheaper one to be worth keeping. *)
  let increasing =
    List.fold_left (fun acc p -> match acc with
        | q :: _ when p.score <= q.score -> acc
        | _ -> p :: acc)
      [] dedup
    |> List.rev
  in
  thin increasing

let score_at revenue x =
  List.fold_left (fun best p -> if p.cost <= x then max best p.score else best) 0 revenue

let best_within revenue x =
  List.fold_left
    (fun best p ->
      if p.cost > x then best
      else match best with Some q when q.score >= p.score -> best | _ -> Some p)
    None revenue

let max_pair revenue = match List.rev revenue with [] -> None | p :: _ -> Some p

let costs revenue = List.map (fun p -> p.cost) revenue

let is_normalized revenue =
  let rec check = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.cost < b.cost && a.score < b.score && check rest
  in
  List.for_all (fun p -> p.cost >= 1 && p.score >= 1) revenue && check revenue

let pp ppf revenue =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf p -> Format.fprintf ppf "%d:%d" p.cost p.score))
    revenue
