(** Demiflight: an always-on, fixed-capacity flight recorder.

    A ring of typed trace records (reusing {!Trace.category}) designed
    to stay armed during production-scale runs: {!record} is O(1) into
    pre-allocated parallel arrays and allocates {e nothing} — the
    category constructors are immediates, the label must be a static
    string (a literal at the call site), and the two payload operands
    are plain ints. The ring silently overwrites its oldest records, so
    steady-state cost is constant in both time and memory; on a trigger
    (an SLO breach, a sanitizer report, a crash) {!dump} replays the
    recent history oldest-first.

    Recording is a pure observation: it never reads the clock, touches
    a PRNG or schedules anything, so arming a recorder cannot change an
    interleaving ([demi observe --check] asserts the digests). *)

type event = {
  ft_ns : Clock.t;  (** virtual time supplied by the producer *)
  ft_cat : Trace.category;
  ft_label : string;  (** static label, e.g. ["qtoken.open"] *)
  ft_a : int;  (** first operand (qtoken, frame length, latency, ...) *)
  ft_b : int;  (** second operand; 0 when unused *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 4096 records; all storage is allocated
    here, never in {!record}. *)

val capacity : t -> int

val record : t -> now:Clock.t -> cat:Trace.category -> label:string -> int -> int -> unit
(** O(1), allocation-free. [label] must be a pre-existing string (the
    array slot stores the pointer); pass literals. *)

val total : t -> int
(** Records ever written, including overwritten ones. *)

val kept : t -> int
val dropped : t -> int
(** [total - kept]: history lost to wraparound. *)

val events : t -> event list
(** The retained window, oldest first. Allocates — dump-path only. *)

val digest : t -> string
(** Stable FNV-1a digest (16 hex chars) of the retained window and the
    total count, mirroring {!Trace.digest}; equal runs give equal
    digests. *)

val dump : ?last:int -> Format.formatter -> t -> unit
(** Print the retained window oldest-first (optionally only the [last]
    n records), with a leading line when wraparound dropped history. *)

val clear : t -> unit
