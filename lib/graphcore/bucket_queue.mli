(** Monotone bucket priority queue over integer items.

    The queue maps items (arbitrary ints, e.g. {!Edge_key} values) to small
    non-negative priorities and pops a minimum-priority item in amortized
    O(1).  It is the engine behind linear-time truss peeling: priorities are
    edge supports, which only decrease as edges are removed, so a cursor that
    never moves backwards more than the decrease amount keeps pops cheap. *)

type t

val create : max_priority:int -> t
(** Buckets for priorities in [\[0, max_priority\]]. *)

val add : t -> int -> int -> unit
(** [add q item prio] inserts the item (replacing any previous priority). *)

val remove : t -> int -> unit
(** Remove the item if present. *)

val priority : t -> int -> int option

val update : t -> int -> int -> unit
(** [update q item prio] changes the priority of a present item; same as
    [add] for an absent one. *)

val pop_min : t -> (int * int) option
(** Extract an item of minimum priority, with that priority. *)

val cardinal : t -> int
