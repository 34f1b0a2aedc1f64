(** Deterministic timer set keyed on the simulator's virtual nanosecond
    clock: an indexed binary min-heap of handles.

    The datapath stacks arm one timer per connection per concern (RTO,
    TIME_WAIT); at 10k+ connections a sorted scan per poll is the first
    thing that melts (§5.4's 12-cycle scheduler budget). Here arm and
    cancel are O(log n), [next_deadline] reads the heap root, and
    [expire] costs O(log n) per entry actually due — never a walk over
    the entries armed.

    Determinism contract: expiry order is by (deadline, insertion
    sequence) — identical to {!Eventq}'s tie-break — so rewiring a stack
    from a sorted scan onto this module cannot reorder same-deadline
    firings across runs. Deadlines are stored exactly (1 ns), so
    [next_deadline] returns exactly the earliest armed deadline —
    required because [Runtime.maybe_park] sleeps until that instant and
    a coarsened bound would change virtual time. *)

type 'a t
(** A timer set holding payloads of type ['a]. Not thread-safe (the
    simulator is single-threaded by construction). *)

type 'a handle
(** A cancellable reference to one armed entry. *)

val create : ?start:int -> unit -> 'a t
(** [start] is the initial virtual time (default 0); deadlines below
    the current time are clamped up to it. *)

val size : 'a t -> int
(** Number of live (armed, not yet fired or cancelled) entries. *)

val add : 'a t -> deadline:int -> 'a -> 'a handle
(** Arm an entry. O(log n). [deadline] is clamped to the current time,
    so a past deadline fires on the next [expire]. *)

val cancel : 'a t -> 'a handle -> unit
(** Disarm: removes the entry from the heap at once. O(log n),
    idempotent; a cancelled entry never fires. *)

val next_deadline : 'a t -> int option
(** Exact earliest live deadline, or [None] when empty. O(1): a read of
    the heap root. Allocates the [Some]; per-poll callers should use
    {!next_deadline_ns}. *)

val next_deadline_ns : 'a t -> int
(** {!next_deadline} without the option: [max_int] means empty.
    Allocation-free — this is the form the steady-state poll loops
    consult every iteration. *)

val expire : 'a t -> now:int -> ('a -> unit) -> unit
(** Advance to [now] and fire every live entry with [deadline <= now],
    in (deadline, insertion-sequence) order. The callback may arm new
    entries (they fire on a later [expire], even if already due) and
    may cancel not-yet-fired ones (they are skipped). Cost: O(log n)
    per entry fired; a call with nothing due reads the root and
    allocates nothing. Not re-entrant: callbacks must not call
    [expire] on the same set. *)

val activity : 'a t -> int
(** Cumulative count of entries fired. Unchanged across an [expire]
    call iff nothing fired — how pollers distinguish a steady
    (allocation-free) poll from a busy one. *)

(** {1 Introspection (tests)} *)

val handle_deadline : 'a handle -> int
val handle_live : 'a handle -> bool
