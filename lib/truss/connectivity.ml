open Graphcore

let components ~g ~dec ~lo ~hi =
  Obs.Span.with_ "connectivity.components" @@ fun () ->
  let members = ref [] in
  Decompose.iter dec (fun key tau -> if tau >= lo && tau < hi then members := key :: !members);
  let members = Array.of_list !members in
  let n = Array.length members in
  if n = 0 then []
  else begin
    let index = Hashtbl.create n in
    Array.iteri (fun i key -> Hashtbl.replace index key i) members;
    let uf = Union_find.create n in
    let tau_of key = match Decompose.trussness_opt dec key with Some t -> t | None -> -1 in
    Array.iteri
      (fun i key ->
        let u, v = Edge_key.endpoints key in
        Graph.iter_common_neighbors g u v (fun w ->
            let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
            let t1 = tau_of e1 and t2 = tau_of e2 in
            (* The whole triangle must lie in the lo-truss. *)
            if t1 >= lo && t2 >= lo then begin
              (match Hashtbl.find_opt index e1 with
              | Some j -> Union_find.union uf i j
              | None -> ());
              match Hashtbl.find_opt index e2 with
              | Some j -> Union_find.union uf i j
              | None -> ()
            end))
      members;
    let groups = Union_find.groups uf in
    let comps =
      Hashtbl.fold (fun _ idxs acc -> List.map (fun i -> members.(i)) idxs :: acc) groups []
    in
    List.sort (fun a b -> Int.compare (List.length b) (List.length a)) comps
  end

let component_nodes edges =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace tbl u ();
      Hashtbl.replace tbl v ())
    edges;
  Hashtbl.fold (fun v () acc -> v :: acc) tbl []
