(** Compact encoding of an undirected edge as a single OCaml [int].

    An edge [{u, v}] is normalized so that the smaller endpoint comes first
    and packed into one 62-bit integer.  Edge keys are the universal edge
    identifier across the truss machinery: trussness tables, support tables,
    onion layers and block membership are all keyed by them.  Node ids must
    be in [\[0, 2^30)]. *)

type t = int

val max_node : int
(** Largest representable node id (exclusive bound [2^30]). *)

val make : int -> int -> t
(** [make u v] is the key of the undirected edge [{u, v}].  Raises
    [Invalid_argument] on self-loops or out-of-range ids. *)

val endpoints : t -> int * int
(** [endpoints k] returns [(u, v)] with [u < v]. *)

val other : t -> int -> int
(** [other k u] is the endpoint of [k] that is not [u].  Raises
    [Invalid_argument] if [u] is not an endpoint. *)

val compare : t -> t -> int
val equal : t -> t -> bool
