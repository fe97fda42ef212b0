(** Block DAG construction — Step 1 of the min-cut interpolation
    (Section IV-C of the paper).

    Component edges sharing a triangle, having the same [(trussness, onion
    layer)] rank, and whose third triangle edge ranks at least as deep, are
    merged into {e blocks}.  Blocks become DAG vertices; a directed link
    runs from the deeper block to the shallower one (peeled earlier), with
    weight [|Q|] where [Q] is the set of deeper-block edges adjacent to the
    shallower block through a qualifying triangle — an estimate of how hard
    it is to keep the deep block while dropping the shallow one.  Blocks
    with no outgoing link get a virtual link to the sink weighted by their
    size. *)

open Graphcore

type t = {
  n_blocks : int;
  index : (Edge_key.t, int) Hashtbl.t;  (** component edge -> block id *)
  edges_of : Edge_key.t array array;  (** block id -> member edges *)
  layer : int array;  (** onion layer of each block *)
  tau : int array;  (** trussness of each block's edges *)
  links : (int * int * int) array;  (** (src, dst, weight); src ranks above dst *)
  out_weight : int array;  (** d_i: total weight of outgoing links *)
  base_sink : int array;  (** |B_i| for sink-attached blocks, else 0 *)
  max_layer : int;
  max_block_size : int;
  total_link_weight : int;  (** q: all link weights, sink links included *)
}

val of_snapshot :
  csr:Csr.t ->
  in_h:bool array ->
  dec:Truss.Decompose.t ->
  component:Edge_key.t array ->
  eids:int array ->
  onion:Truss.Onion.layers ->
  t
(** The DAG of a component whose local subgraph [h] (see
    {!Truss.Onion.build_h}) is the set of snapshot edges marked by [in_h]:
    [eids.(i)] is the snapshot edge id of [component.(i)], and [onion] the
    {!Truss.Onion.peel_snapshot} of the component over the same mask.
    Triangles are read from the snapshot, skipping those with an edge
    outside [h].  [dec] supplies each member's trussness (0 for edges
    outside it); every other [h] edge is backdrop.  Neither [in_h] nor
    [onion] is modified. *)

val build :
  h:Graph.t ->
  dec:Truss.Decompose.t ->
  k:int ->
  component:Edge_key.t list ->
  onion:Truss.Onion.result ->
  t
(** {!of_snapshot} on [h]'s dense snapshot ({!Csr.of_graph_dense}) with
    every edge in [h]: [onion] is {!Truss.Onion.peel} of [component] in
    [h].  Raises [Invalid_argument] when a component edge is not in [h] or
    has no layer. *)

val block_of : t -> Edge_key.t -> int option
(** Block membership lookup. *)

val edges_of_blocks : t -> int list -> Edge_key.t list
(** Union of the member edges of the given blocks. *)

val size : t -> int -> int
(** Number of edges in a block. *)
