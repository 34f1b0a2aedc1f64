(** Broadcast condition variables for fibers.

    Used wherever a simulated component needs to park until "something
    arrived": a NIC rx ring signals its host, a completion queue signals
    a poller. As with pthread condition variables, a waiter must re-check
    its predicate after waking — wakeups are permission to look, not a
    value.

    Every pending event is live. A parked fiber is one waiter, however it
    parked, with at most two pending events: one wake-up from a
    {!broadcast} and its timeout. The first of them to run resumes the
    fiber, removes the waiter from the queue of every condition variable
    it waited on, and cancels the other ({!Sim.cancel}). A condition
    variable therefore holds parked fibers only, and no event is left to
    run as a no-op after its fiber woke. *)

type t

val create : Sim.t -> t

val wait : t -> unit
(** Park the calling fiber until the next {!broadcast}. *)

val wait_timeout : t -> Clock.t -> [ `Signaled | `Timeout ]
(** Park until a broadcast or until the span elapses, whichever comes
    first. A broadcast whose wake-up is due at the timeout's instant
    wins only if it was scheduled before the timeout (events at one
    instant run in insertion order). *)

val broadcast : t -> unit
(** Wake every currently-parked waiter (in FIFO order, at the current
    virtual time): each gets one wake-up event, except a waiter that
    already has one pending from a broadcast on another of its
    condition variables. Waiters arriving after this call are not
    woken. *)

val wait_many : Sim.t -> t list -> timeout:Clock.t option -> [ `Signaled | `Timeout ]
(** Park until any of the condition variables broadcasts, or until the
    (absolute-span) timeout elapses. With an empty list and no timeout
    the caller sleeps forever. *)

val waiters : t -> int
(** Number of fibers parked on this condition variable and not yet
    woken by a broadcast on it (for tests and introspection). A fiber
    woken through another condition variable, or by its timeout, is no
    longer counted. O(waiters). *)
