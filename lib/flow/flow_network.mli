(** Directed flow network with integer capacities, stored flat.

    Arcs live in parallel int arrays indexed by arc id; each arc carries its
    residual twin at [id lxor 1], the classic representation for
    augmenting-path algorithms.  The per-node adjacency is a frozen CSR
    ([first_out] offsets into an [adj] arc-id array), rebuilt lazily after
    the last {!add_arc} — construction is append-only, solving reads the
    frozen layout with zero per-query allocation.  Capacities are plain
    [int]s — the truss flow graphs only ever hold small sums of edge
    counts. *)

type t

val create : nodes:int -> t
(** Network on nodes [0 .. nodes-1] with no arcs. *)

val num_nodes : t -> int

val add_arc : t -> src:int -> dst:int -> cap:int -> int
(** Adds a forward arc of capacity [cap] and its reverse of capacity [0];
    returns the forward arc id.  Capacity must be non-negative. *)

val arc_dst : t -> int -> int
(** Destination node of the arc. *)

val arc_cap : t -> int -> int
(** Remaining residual capacity of the arc. *)

val initial_cap : t -> int -> int
(** Capacity the arc was created with (or last {!set_cap} value). *)

val send : t -> int -> int -> unit
(** [send net id amount] pushes [amount] units along the arc: decreases its
    residual capacity and credits the twin.  Raises [Invalid_argument] when
    [amount] exceeds the residual capacity. *)

val set_cap : t -> int -> int -> unit
(** [set_cap net id cap] reparameterizes the arc to capacity [cap],
    preserving any flow already routed through it: the residual capacity
    moves by [cap - initial_cap net id] and the twin is untouched, so
    [initial_cap - arc_cap] (the committed flow) is invariant.  Raises
    [Invalid_argument] when the committed flow exceeds the new capacity —
    lowering a cap below its current flow would require rerouting, which is
    the caller's job (reset or restore a snapshot first). *)

val iter_arcs_from : t -> int -> (int -> unit) -> unit
(** All arc ids (forward and residual) leaving a node, ascending id.
    Freezes the CSR adjacency on first use after an [add_arc]. *)

val num_arcs : t -> int
(** Total stored arcs, twins included. *)

val reset : t -> unit
(** Restore every arc to its initial capacity (undoes all flow). *)

(** {2 Snapshots}

    A snapshot captures the residual and initial capacities of every arc —
    i.e. both the flow and the parameterization — in two flat copies.
    {!restore} blits them back; the arc set itself must be unchanged. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** {2 Raw frozen layout}

    Zero-overhead access for the solver hot loops ({!Dinic}): the live
    arrays themselves, not copies.  [i_cap] may be mutated to route flow
    (keep twins consistent).  The arrays are invalidated by the next
    {!add_arc} — re-fetch after construction completes. *)

type internals = {
  i_dst : int array;  (** arc id -> destination node *)
  i_cap : int array;  (** arc id -> residual capacity (mutable by owner) *)
  i_first_out : int array;  (** node -> first index into [i_adj], length nodes+1 *)
  i_adj : int array;  (** CSR adjacency: arc ids grouped by tail node *)
}

val internals : t -> internals
(** Freezes the CSR adjacency and returns the live arrays. *)
