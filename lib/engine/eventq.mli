(** Pending-event set for the simulator: a binary min-heap keyed on
    (time, insertion sequence). The sequence number makes simultaneous
    events fire in insertion order, which keeps runs deterministic. *)

type t

val create : unit -> t

val add : t -> time:Clock.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute virtual time. *)

val min_time : t -> Clock.t
(** Time of the earliest pending event, without removing it. Allocates
    nothing. Raises [Invalid_argument] when the set is empty. *)

val pop : t -> (unit -> unit)
(** Remove the earliest event and return its callback; read its time
    with {!min_time} first. Allocates nothing. Raises [Invalid_argument]
    when the set is empty. *)

val is_empty : t -> bool

val size : t -> int
