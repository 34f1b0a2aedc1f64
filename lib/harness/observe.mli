(** The observer-effect gate ([demi observe --check]).

    Spans, pcap capture, the flight ring, the timeline sampler, the SLO
    watchdog and causal contexts must be pure observers: the same seed
    with a recorder armed and disarmed must give a byte-identical
    {!Engine.Trace.digest} and the exact same latency sequence. The
    gate proves that for every recorder set on one flavor, and
    validates every artifact the armed runs produced. *)

type probe = { digest : string; latencies : int list }
(** What an armed run is compared on: the trace digest and the exact
    per-op latencies in completion order. *)

val echo_probe : Common.echo_run -> probe
(** Requires the run to have armed {!Common.Trace}. *)

val compare_runs : label:string -> probe -> probe -> (string * bool) list
(** [compare_runs ~label bare armed]: one digest line and one latency line,
    each [(what, ok)]. *)

val chrome_valid : string -> string -> string * bool
(** [chrome_valid what json]: {!Chrome_trace.validate} as a gate line. *)

val breakdown_exact : Fig_breakdown.breakdown -> bool
(** Components + other = total. *)

val arms : (string * Common.recorder list) list
(** The recorder sets the gate arms, by name: spans, capture, flight,
    timeline, slo watchdog, all recorders. *)

val echo_gate :
  loss:float -> Demikernel.Boot.flavor -> (string * Common.recorder list) list -> (string * bool) list
(** A bare 16-echo run, then one run per named recorder set, each
    compared with the bare run and its artifacts validated. *)

val fleet_gate : Demikernel.Boot.flavor -> (string * bool) list
(** {!Fleet.txnstore} and {!Fleet.relay} (not on Catmint) recording vs
    not, with every critical path, the profile and the Chrome export
    checked. *)

val gate : Demikernel.Boot.flavor -> (string * bool) list
(** Per flavor, at loss 0 and at loss 0.05: a bare 16-echo run, then
    one run per recorder set — spans, capture, flight, timeline, spans
    with the SLO watchdog, and all of them together — each compared
    with the bare run and its artifacts validated (Chrome JSON and the
    last-RTT breakdown sum; watchdog outliers; pcap parse, non-empty,
    monotone timestamps; flight ring non-empty; timeline samples on the
    grid). Then {!Fleet.txnstore} and {!Fleet.relay} (not on Catmint,
    which has no datagram sockets) recording vs not, with every
    critical path, the profile and the Chrome export checked. *)
