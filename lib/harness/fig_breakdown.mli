(** Table-5-style latency attribution: where each nanosecond of one
    echo RTT went, per Demitrace component.

    A critical-path sweep cuts the RTT window at every span boundary and
    charges each elementary segment to exactly one component (CPU work
    beats asynchronous device/wire time; the most recently started CPU
    interval wins), so the component sums plus the unattributed
    remainder equal the end-to-end RTT {e exactly}. *)

type breakdown = {
  components : (Engine.Span.component * int) list;
      (** nonzero components, presentation order *)
  other : int;  (** window time covered by no span: queueing, idle waits *)
  total : int;  (** window length = sum of [components] + [other] *)
}

val attribute : Engine.Span.t -> w0:int -> w1:int -> breakdown
(** Sweep the recorded intervals clipped to [\[w0, w1\]]. *)

val breakdown_json : breakdown -> string
(** Raw JSON object, embedded in the Chrome trace's top level. *)

type run = {
  flavor : Demikernel.Boot.flavor;
  rtt : int;  (** the client-observed RTT the window came from *)
  breakdown : breakdown;
  spans : Engine.Span.t;
}

val last_rtt : Common.echo_run -> run
(** Attribute the run's last completed RTT, on the client's clock.
    The run must have armed {!Common.Spans}. *)

val echo : ?msg_size:int -> ?count:int -> Demikernel.Boot.flavor -> run
(** {!last_rtt} of a {!Common.echo} with spans armed, [count] (default
    16) TCP echos. *)

val print_table : run list -> unit
(** Print the paper-style breakdown table, one column per run. *)

(** {2 Tail attribution (Demiflight)}

    "Table 5 for the slowest 0.1%": the same critical-path sweep,
    aggregated over retained per-op windows and conditioned on latency
    quantile. Retention is a deterministic reservoir (Algorithm R over
    a fixed-seed generator, independent of the sim's PRNG) plus an
    exact slowest-k list, so the extreme tail band is never starved by
    sampling. *)

val sum_breakdowns : breakdown list -> breakdown
(** Component-wise sum; preserves the exactness invariant
    (components + other = total) since each summand satisfies it. *)

type tail_band = {
  band_label : string;
  band_quantile : float;  (** lower quantile bound; 0.0 = every op *)
  band_cut_ns : int;  (** RTT threshold the band starts at *)
  band_ops : int;  (** retained windows aggregated into the band *)
  band_breakdown : breakdown;  (** exact virtual-ns sums over those windows *)
}

type tail = {
  tail_flavor : Demikernel.Boot.flavor;
  tail_ops : int;  (** total RTTs measured *)
  tail_hdr : Metrics.Hdr.t;  (** full-precision RTT distribution *)
  tail_sampled : int;  (** distinct windows retained *)
  tail_bands : tail_band list;
  tail_digest : string;
}

val default_quantiles : (string * float) list
(** [all, p90+, p99+, p99.9+]. *)

val echo_tail :
  ?count:int ->
  ?msg_size:int ->
  ?reservoir_capacity:int ->
  ?top_k:int ->
  ?quantiles:(string * float) list ->
  Demikernel.Boot.flavor ->
  tail
(** The {!echo} scenario with [count] (default 512) messages; every
    RTT feeds the Hdr histogram and offers its window to the reservoir
    (default capacity 256) and the slowest-k list (default 64). Bands
    are cumulative from each quantile cut upward. *)

val print_tail : tail -> unit
(** Print the per-band breakdown table; cells are exact virtual-ns
    sums (each band column's component rows + other = end-to-end). *)
