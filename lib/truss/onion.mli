(** Onion layers (Definitions 5 and 8 of the paper).

    Peeling the candidate edges of a component toward the k-truss proceeds in
    synchronous rounds: round [l] removes every still-present candidate whose
    support (counted in the remaining subgraph) is below [k - 2].  The round
    in which an edge disappears is its onion layer — layer 1 edges are the
    most fragile, higher layers are peeled later and are thus "deeper".
    Backdrop edges (the k-truss itself) are never peeled.

    The same routine computes both the within-class layers of Definition 5
    (candidates = the (k-1)-class, backdrop = T_k) and the general layers of
    Definition 8 (candidates = a general component with trussness in
    [k-h, k), backdrop = T_k). *)

open Graphcore

type result = {
  layer : (Edge_key.t, int) Hashtbl.t;  (** layer of every candidate, >= 1 *)
  max_layer : int;
  rounds : int;  (** number of peeling rounds executed *)
}

type layers = {
  layer_of : int array;  (** snapshot edge id -> layer; 0 off the candidates *)
  max_layer : int;
  rounds : int;
}

val peel_snapshot : csr:Csr.t -> in_h:bool array -> k:int -> candidates:int array -> layers
(** The peel itself, on a snapshot whose edges in [h] are marked by [in_h]
    (indexed by edge id); [candidates] are edge ids inside [h], and every
    other [h] edge is backdrop.  Triangles with an edge outside [h] do not
    count.  Peels on flat arrays; [csr] and [in_h] are left untouched.
    Raises [Invalid_argument] on a candidate outside [h].

    Candidates that never fall below the support threshold would belong to
    the k-truss — impossible when trussness was computed correctly — but the
    function is total: any such edges are assigned [max_layer] and the loop
    terminates. *)

val peel : h:Graph.t -> k:int -> candidates:Edge_key.t list -> unit -> result
(** [peel ~h ~k ~candidates ()] is {!peel_snapshot} on [h]'s {!Csr}
    snapshot with every edge in [h], its layers keyed by edge.  [h] must
    contain every candidate and is left untouched. *)

val build_h :
  g:Graph.t ->
  backdrop:(Edge_key.t, unit) Hashtbl.t ->
  candidates:Edge_key.t list ->
  Graph.t
(** Subgraph of [g] containing the candidates plus every backdrop edge with
    at least one endpoint among the candidate nodes — a safe local
    restriction of [T_k ∪ E_c]: any triangle through a candidate edge
    [(u,v)] uses two edges incident to [u] and [v], so candidate supports in
    this subgraph equal those in the full [T_k ∪ E_c].  The result's node
    table is sized to [g]'s largest id up front; the walk covers the whole
    backdrop, so a call costs O(|backdrop| + max node id of [g]). *)
