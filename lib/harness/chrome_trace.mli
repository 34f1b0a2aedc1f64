(** Chrome trace-event JSON export of Demitrace spans, plus a
    structural validator.

    The exporter maps span owners to Chrome processes and component
    tracks to threads; overlapping intervals are split across greedy
    sub-tracks so every thread's B/E duration events are balanced and
    nest trivially. Timestamps are virtual nanoseconds printed as
    fractional microseconds (the trace-event unit). The document is
    built as a {!Metrics.Json.t} and printed compactly. Open the output
    in [chrome://tracing] or Perfetto. *)

type ev = {
  name : string;
  cat : string;
  ph : char;  (** 'B' | 'E' | 'X' | 'M' | 's' | 'f' (flow arrows). *)
  ts : int;  (** virtual ns; printed as fractional µs. *)
  pid : int;
  tid : int;
  id : int option;  (** flow-event binding id ('s'/'f' only). *)
  arg : (string * Metrics.Json.t) option;  (** one [args] field: key, value. *)
}
(** One trace event, for exporters that build their own lanes (e.g.
    Demifleet's request-per-lane view). *)

val ev :
  ?id:int -> ?arg:string * Metrics.Json.t -> name:string -> cat:string -> pid:int -> tid:int ->
  char -> int -> ev
(** [ev ~name ~cat ~pid ~tid ph ts]. *)

val slice :
  ?arg:string * Metrics.Json.t -> name:string -> cat:string -> pid:int -> tid:int -> int -> int ->
  ev list
(** The slice [\[t0, t1\]] on one track: a B/E pair with [arg] on the B,
    or one complete ['X'] event when [t0 = t1] (a zero-width B/E pair
    would be inverted by {!render}'s E-before-B tie order). *)

val render : ?extra:(string * Metrics.Json.t) list -> ev list -> string
(** Sort (metadata first, then by ts with E before B on ties, stable)
    and wrap as a trace-event JSON document that {!validate} accepts.
    [extra] appends top-level fields. *)

val export : ?extra:(string * Metrics.Json.t) list -> Engine.Span.t -> string
(** Render all recorded intervals and completed op spans, plus Demiscope
    causal flows: each wire event becomes a flow arrow ([ph:"s"] /
    [ph:"f"], one id per frame journey) from the op slice the source
    host had open when the frame hit the wire to the op slice covering
    its arrival — for an echo, client push → server pop. Dropped frames
    emit only the tail: a broken arrow. [extra] is appended as top-level
    fields (used to embed the per-component breakdown). *)

val validate : string -> (int, string) result
(** Structurally validate trace JSON text: well-formed JSON (checked by
    {!Metrics.Json.parse}), a [traceEvents] array whose events carry
    name/ph/ts and integer pid/tid, globally non-decreasing [ts],
    balanced B/E per (pid, tid) with empty stacks at the end, and flow
    arrows carrying integer ids whose heads follow their tails (a tail
    alone is legal: a dropped frame). Returns [Ok event_count] or
    [Error reason]. *)
