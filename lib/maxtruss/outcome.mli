(** Common result record for all maximization algorithms. *)

type t = {
  inserted : (int * int) list;  (** new edges actually inserted *)
  score : int;  (** verified new k-truss edges against the original graph *)
  time_s : float;  (** wall-clock seconds *)
  timed_out : bool;  (** the algorithm hit its time guard *)
}

val empty : t

val timed :
  (csr:Graphcore.Csr.t -> dec:Truss.Decompose.t -> (int * int) list * bool) ->
  original:Graphcore.Graph.t ->
  k:int ->
  t
(** Snapshot and decompose the original graph, run the algorithm on them,
    verify its insertions against the same pair (the oracle peels only the
    graph with the plan merged in), and stamp the algorithm's wall-clock time. *)
