(** The discrete-event simulation driver.

    A [Sim.t] owns the virtual clock and the pending-event set. All
    hosts, devices and the network fabric of one experiment hang off a
    single [Sim.t]; running it to completion executes the experiment. *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh world at time zero. [seed] (default 1) roots all randomness. *)

val now : t -> Clock.t
(** Current virtual time. *)

val prng : t -> Prng.t
(** The root generator. Components should [Prng.split] their own. *)

val schedule : t -> delay:Clock.t -> (unit -> unit) -> unit
(** Run a callback [delay] ns from now. [delay] must be >= 0. *)

val at : t -> time:Clock.t -> (unit -> unit) -> unit
(** Run a callback at an absolute time (>= [now]). *)

(** {1 Cancellable events}

    Every pending event is live: a component whose scheduled callback
    has become pointless (a timeout whose wait already ended, a wake-up
    for a fiber that already woke) cancels it instead of leaving a
    no-op in the set. Cancelling skips the event's insertion sequence
    number and never reorders the events that stay, so a run with the
    event cancelled is the run with it left as a no-op, minus that one
    event: the same firing order and virtual results, one less in
    {!events_processed}. Only the end of a run tells the two apart:
    when nothing but cancelled events would be left, {!run} returns at
    the last live event instead of moving the clock on to them. *)

type timer
(** A handle on one scheduled event. *)

val timer : t -> delay:Clock.t -> (unit -> unit) -> timer
(** {!schedule}, returning a handle for {!cancel}. *)

val cancel : t -> timer -> unit
(** Remove the event from the pending set; its callback never runs.
    O(log n) in {!pending}. A no-op on an event that already ran or was
    already cancelled, and on {!no_timer}. *)

val no_timer : timer
(** A handle on no event: never {!armed}, and {!cancel} ignores it. *)

val armed : timer -> bool
(** Whether the event is still pending (neither run nor cancelled). *)

val pending : t -> int
(** Number of events in the pending set. Read-only; cancelled events
    are not counted (nor kept). *)

val stop : t -> unit
(** Make [run] return after the current event. *)

val run : ?until:Clock.t -> t -> unit
(** Execute events in (time, insertion) order until the set is empty,
    [stop] is called, or the next event lies beyond [until] (in which
    case the clock is advanced to [until] and the event is left
    pending). *)

val fast_forward : t -> delay:Clock.t -> bool
(** [fast_forward t ~delay] is the in-place form of scheduling an event
    [delay] ns from now ([delay >= 0]) whose callback is "carry on": it
    succeeds exactly when that event would be the very next one [run]
    pops, namely when all of these hold:
    - a [run] is in progress and has not been [stop]ped;
    - [now + delay] is at or before the run's [until] (unbounded
      without one);
    - the set is empty, or its earliest event is {e strictly} later
      than [now + delay] (an event queued at that same instant was
      inserted first and must run first).

    On success it does what popping that event would do: the clock moves
    to [now + delay], sampler boundaries crossed on the way fire, and
    {!events_processed} counts one event; it allocates nothing. On
    [false] nothing changed and the caller must schedule the event. The
    result is the same run either way: only insertion sequence numbers
    are skipped, never reordered, so digests, [events=] counts and
    sampler rows are identical. {!Fiber.sleep} is the one caller.

    The caller must be the tail of the current event: nothing may run
    after it in this event except what the scheduled callback would have
    run. A fiber resumed in tail position of an event callback (as
    {!Condvar} and {!Fiber.sleep} do) satisfies this. *)

val events_processed : t -> int
(** Total events executed (including fast-forwarded ones), for sanity
    checks and reporting. *)

(** {1 Fixed-interval sampling (Demiscope timelines)} *)

val set_sampler : t -> interval:Clock.t -> (Clock.t -> unit) -> unit
(** Install a virtual-time sampler: [f boundary] fires once for every
    multiple of [interval] the clock crosses, from inside the run loop
    {e between} events — nothing is scheduled, so the pending-event set
    and every interleaving are identical with sampling on or off (the
    observer-effect-free discipline). The callback must only read state;
    it sees the world as of its nominal boundary time (no event between
    the boundary and the sample has run yet). Replaces any previous
    sampler; the first boundary is [now + interval]. *)

val clear_sampler : t -> unit

(** {1 Teardown} *)

val at_teardown : t -> (unit -> unit) -> unit
(** Register a hook to run when the experiment is torn down. Hosts use
    this to emit end-of-run reports (e.g. the heap sanitizer's
    leak/double-free summary). *)

val teardown : t -> unit
(** Run the registered hooks in registration order, then clear them
    (calling twice is harmless). Harness entry points call this after
    the final [run]. *)

(** {1 Tracing} *)

val enable_trace : ?capacity:int -> t -> Trace.t
(** Attach (or return the existing) event trace. On first attach a
    teardown hook is registered that warns (stderr) when ring events
    were dropped. *)

val trace : t -> Trace.t option

val trace_event : t -> category:Trace.category -> (unit -> string) -> unit
(** Record a trace event; the thunk is forced only when tracing is
    enabled, so call sites cost one branch otherwise. *)

(** {1 Spans (Demitrace)} *)

val enable_spans : ?capacity:int -> t -> Span.t
(** Attach (or return the existing) span recorder. On first attach a
    teardown hook is registered that reports op spans left open (leaks),
    mirroring the heap sanitizer's report. The recorder is a pure
    observer: enabling it must not change the event interleaving, the
    clock, or {!Trace.digest}. *)

val spans : t -> Span.t option

(** {1 Flight recorder (Demiflight)} *)

val enable_flight : ?capacity:int -> t -> Flight.t
(** Attach (or return the existing) flight recorder — a fixed-capacity
    ring of typed records cheap enough to stay armed in production
    runs. Recording is a pure observation: enabling it must not change
    the event interleaving, the clock, or {!Trace.digest}
    ([demi observe --check] is the gate). *)

val flight : t -> Flight.t option

(** {1 Causal request contexts (Demifleet)} *)

val enable_causal : ?capacity:int -> t -> Causal.t
(** Attach (or return the existing) causal-context recorder. On first
    attach a teardown hook is registered that warns (stderr) when
    events were dropped. Like spans and the flight ring, the recorder
    is a pure observer: enabling it must not change the event
    interleaving, the clock, or {!Trace.digest} ([demi observe --check]
    is the gate). *)

val causal : t -> Causal.t option

val flight_note : t -> cat:Trace.category -> label:string -> int -> int -> unit
(** Record one flight event at the current virtual time; a single
    branch when no recorder is attached, O(1) and allocation-free when
    one is. [label] must be a static string (pass a literal). *)

val span_interval :
  ?key:int ->
  ?label:string ->
  t ->
  comp:Span.component ->
  owner:string ->
  t0:Clock.t ->
  t1:Clock.t ->
  unit
(** Attribute the absolute virtual interval [\[t0, t1\]] to [comp]; one
    branch when spans are disabled. Use for asynchronous stretches
    (device HW time, wire time) whose endpoints are known when the work
    is scheduled. *)

val span_note :
  ?key:int ->
  ?label:string ->
  t ->
  comp:Span.component ->
  owner:string ->
  dur:Clock.t ->
  unit
(** Attribute [\[now, now + dur\]] to [comp] — the shape of every
    synchronous cost-model charge ([Host.charge_as] calls this just
    before sleeping the charged duration). *)

val span_wire :
  t ->
  flow:int ->
  src:string ->
  dst:string ->
  label:string ->
  t0:Clock.t ->
  t1:Clock.t ->
  status:Span.wire_status ->
  unit
(** Record a flow-keyed wire event ({!Span.note_wire}); one branch when
    spans are disabled. The fabric calls this for every frame journey. *)
