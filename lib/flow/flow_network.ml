(* Flat CSR arc storage.  Arcs live in parallel int arrays (destination,
   residual capacity, initial capacity) indexed by arc id, with the twin at
   [id lxor 1]; the per-node adjacency is a frozen CSR ([first_out]/[adj])
   rebuilt lazily after the last [add_arc].  The tail of any arc is
   recoverable as [arc_dst (id lxor 1)], so no per-arc source array is
   needed.  Plain int arrays also remove the record-cell aliasing hazard the
   previous [arc array] growth path carried ([Array.make n cell] shares one
   mutable record across every fresh slot). *)

type t = {
  nodes : int;
  mutable arc_dst : int array;
  mutable arc_cap : int array;  (* residual *)
  mutable arc_init : int array;
  mutable n_arcs : int;
  out_deg : int array;  (* arcs (forward + twin) leaving each node *)
  mutable first_out : int array;  (* CSR offsets, length nodes+1 when frozen *)
  mutable adj : int array;  (* arc ids grouped by tail node, ascending id *)
  mutable frozen : bool;
}

type internals = {
  i_dst : int array;
  i_cap : int array;
  i_first_out : int array;
  i_adj : int array;
}

let create ~nodes =
  {
    nodes;
    arc_dst = [||];
    arc_cap = [||];
    arc_init = [||];
    n_arcs = 0;
    out_deg = Array.make (max nodes 1) 0;
    first_out = [||];
    adj = [||];
    frozen = false;
  }

let num_nodes t = t.nodes

let grow t =
  let cap = Array.length t.arc_dst in
  if t.n_arcs + 2 > cap then begin
    let ncap = max 16 (2 * cap) in
    let extend a =
      let na = Array.make ncap 0 in
      Array.blit a 0 na 0 t.n_arcs;
      na
    in
    t.arc_dst <- extend t.arc_dst;
    t.arc_cap <- extend t.arc_cap;
    t.arc_init <- extend t.arc_init
  end

let add_arc t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Flow_network.add_arc: negative capacity";
  if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
    invalid_arg "Flow_network.add_arc: node out of range";
  grow t;
  let id = t.n_arcs in
  t.arc_dst.(id) <- dst;
  t.arc_cap.(id) <- cap;
  t.arc_init.(id) <- cap;
  t.arc_dst.(id + 1) <- src;
  t.arc_cap.(id + 1) <- 0;
  t.arc_init.(id + 1) <- 0;
  t.n_arcs <- t.n_arcs + 2;
  t.out_deg.(src) <- t.out_deg.(src) + 1;
  t.out_deg.(dst) <- t.out_deg.(dst) + 1;
  t.frozen <- false;
  id

let freeze t =
  if not t.frozen then begin
    let n = t.nodes in
    let fo = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      fo.(v + 1) <- fo.(v) + t.out_deg.(v)
    done;
    let pos = Array.sub fo 0 n in
    let adj = Array.make (max t.n_arcs 1) 0 in
    for id = 0 to t.n_arcs - 1 do
      let v = t.arc_dst.(id lxor 1) in
      adj.(pos.(v)) <- id;
      pos.(v) <- pos.(v) + 1
    done;
    t.first_out <- fo;
    t.adj <- adj;
    t.frozen <- true
  end

let internals t =
  freeze t;
  { i_dst = t.arc_dst; i_cap = t.arc_cap; i_first_out = t.first_out; i_adj = t.adj }

let arc_dst t id = t.arc_dst.(id)

let arc_cap t id = t.arc_cap.(id)

let initial_cap t id = t.arc_init.(id)

let send t id amount =
  if amount > t.arc_cap.(id) then
    invalid_arg "Flow_network.send: exceeds residual capacity";
  t.arc_cap.(id) <- t.arc_cap.(id) - amount;
  let twin = id lxor 1 in
  t.arc_cap.(twin) <- t.arc_cap.(twin) + amount

let set_cap t id cap =
  if cap < 0 then invalid_arg "Flow_network.set_cap: negative capacity";
  let delta = cap - t.arc_init.(id) in
  let residual = t.arc_cap.(id) + delta in
  if residual < 0 then invalid_arg "Flow_network.set_cap: below committed flow";
  t.arc_init.(id) <- cap;
  t.arc_cap.(id) <- residual

let iter_arcs_from t v f =
  freeze t;
  let adj = t.adj in
  for i = t.first_out.(v) to t.first_out.(v + 1) - 1 do
    f adj.(i)
  done

let num_arcs t = t.n_arcs

let reset t = Array.blit t.arc_init 0 t.arc_cap 0 t.n_arcs

type snapshot = { s_n_arcs : int; s_cap : int array; s_init : int array }

let snapshot t =
  {
    s_n_arcs = t.n_arcs;
    s_cap = Array.sub t.arc_cap 0 t.n_arcs;
    s_init = Array.sub t.arc_init 0 t.n_arcs;
  }

let restore t s =
  if s.s_n_arcs <> t.n_arcs then
    invalid_arg "Flow_network.restore: snapshot from a different arc set";
  Array.blit s.s_cap 0 t.arc_cap 0 s.s_n_arcs;
  Array.blit s.s_init 0 t.arc_init 0 s.s_n_arcs
