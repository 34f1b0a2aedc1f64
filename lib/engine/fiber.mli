(** Simulation processes as effect-handler fibers.

    A fiber is a piece of linear code (a host's main loop, a load
    generator, a device model) that can suspend itself — sleeping for a
    span of virtual time or waiting on a {!Condvar} — and is resumed by
    the event loop. This is the simulator-level analogue of the paper's
    observation that coroutines let I/O stacks keep a linear programming
    flow instead of hand-written state machines. *)

val spawn : Sim.t -> ?name:string -> (unit -> unit) -> unit
(** Start a fiber at the current virtual time. Exceptions escaping the
    fiber body are wrapped in [Failure] with the fiber name and re-raised
    out of {!Sim.run}. *)

val sleep : Sim.t -> Clock.t -> unit
(** Suspend the calling fiber for a span of virtual time.

    When nothing else is due first — {!Sim.fast_forward} holds: the run
    is live, the wake-up time is within its [until], and no event is
    queued at or before it — the clock is advanced in place and the
    fiber carries on without suspending; this allocates nothing.
    Otherwise the fiber suspends and one event resumes it. Both paths
    give the same run: same firing order, clock, {!Sim.events_processed}
    and sampler rows. The caller must be running in tail position of its
    event (see {!Sim.fast_forward}), which holds for every fiber resumed
    by {!spawn}, [sleep] or {!Condvar}. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling fiber and hands its resume
    function to [register]. The resume function must be called exactly
    once, as the last thing an event callback does (nothing of that
    event may run after the fiber suspends again, or a fast-forwarding
    {!sleep} inside it would move the clock under the caller). {!Condvar}
    is built on it. *)

val yield : Sim.t -> unit
(** Re-schedule the calling fiber at the current time, letting other
    events at this instant run first. *)
