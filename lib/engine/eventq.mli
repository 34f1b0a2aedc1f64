(** Pending-event set for the simulator: an indexed binary min-heap
    keyed on (time, insertion sequence). The sequence number makes
    simultaneous events fire in insertion order, which keeps runs
    deterministic.

    Every queued event knows its own heap slot, so {!cancel} removes it
    in place in O(log n): a cancelled event leaves the set at once
    instead of sitting in it until its time comes round as a no-op.
    Cancelling skips a sequence number and never reorders the events
    that stay, so the set pops the same sequence as one in which the
    cancelled callback had been a no-op. *)

type t

type handle
(** One scheduled event, for {!cancel}. *)

val create : unit -> t

val add : t -> time:Clock.t -> (unit -> unit) -> handle
(** Schedule a callback at an absolute virtual time. Allocates the
    event's handle, nothing else. *)

val cancel : t -> handle -> unit
(** Remove a queued event; its callback never runs. O(log n). A no-op
    on an event that already popped or was already cancelled, and on
    {!none}. The handle must come from this set. *)

val none : handle
(** A handle that is never queued: {!cancel} on it does nothing. The
    placeholder for "no event". *)

val queued : handle -> bool
(** Whether the event is still in the set (neither popped nor
    cancelled). *)

val min_time : t -> Clock.t
(** Time of the earliest pending event, without removing it. Allocates
    nothing. Raises [Invalid_argument] when the set is empty. *)

val pop : t -> (unit -> unit)
(** Remove the earliest event and return its callback; read its time
    with {!min_time} first. Allocates nothing. Raises [Invalid_argument]
    when the set is empty. *)

val is_empty : t -> bool

val size : t -> int
(** Number of queued events: cancelled ones are not counted (nor
    kept). *)
