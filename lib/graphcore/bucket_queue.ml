type t = {
  buckets : (int, unit) Hashtbl.t option array;
      (* allocated lazily: sparse priority ranges (a huge max_support with
         few distinct values) would otherwise pay O(max_priority) hashtable
         allocations up front *)
  prio : (int, int) Hashtbl.t;
  mutable cursor : int; (* no non-empty bucket strictly below the cursor *)
  mutable size : int;
}

let create ~max_priority =
  {
    buckets = Array.make (max_priority + 1) None;
    prio = Hashtbl.create 64;
    cursor = max_priority + 1;
    size = 0;
  }

let bucket t p =
  match t.buckets.(p) with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 4 in
    t.buckets.(p) <- Some h;
    h

let clamp t p =
  let n = Array.length t.buckets in
  if p < 0 then 0 else if p >= n then n - 1 else p

let remove t item =
  match Hashtbl.find_opt t.prio item with
  | None -> ()
  | Some p ->
    Hashtbl.remove t.prio item;
    (match t.buckets.(p) with Some h -> Hashtbl.remove h item | None -> ());
    t.size <- t.size - 1

let add t item p =
  let p = clamp t p in
  remove t item;
  Hashtbl.replace t.prio item p;
  Hashtbl.replace (bucket t p) item ();
  t.size <- t.size + 1;
  if p < t.cursor then t.cursor <- p

let update = add

let priority t item = Hashtbl.find_opt t.prio item

let cardinal t = t.size

let bucket_length t p = match t.buckets.(p) with None -> 0 | Some h -> Hashtbl.length h

let pop_min t =
  if t.size = 0 then None
  else begin
    let n = Array.length t.buckets in
    while t.cursor < n && bucket_length t t.cursor = 0 do
      t.cursor <- t.cursor + 1
    done;
    if t.cursor >= n then None
    else begin
      match t.buckets.(t.cursor) with
      | None -> None (* unreachable: bucket_length > 0 *)
      | Some bucket ->
        (* Take an arbitrary element of the minimal bucket. *)
        let item = ref (-1) in
        (try
           Hashtbl.iter
             (fun k () ->
               item := k;
               raise Exit)
             bucket
         with Exit -> ());
        let p = t.cursor in
        Hashtbl.remove bucket !item;
        Hashtbl.remove t.prio !item;
        t.size <- t.size - 1;
        Some (!item, p)
    end
  end
