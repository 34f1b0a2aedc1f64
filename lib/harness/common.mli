(** Shared experiment scaffolding: build a world, run systems, collect
    latency distributions. *)

type world = { sim : Engine.Sim.t; fabric : Net.Fabric.t; cost : Net.Cost.t }

val make_world : ?cost:Net.Cost.t -> ?loss:float -> ?seed:int64 -> unit -> world

val run_world : ?horizon_s:int -> world -> unit

val flavor_name : Demikernel.Boot.flavor -> string
(** ["catnap"] | ["catnip"] | ["catmint"]. *)

type echo_proto = Echo_tcp | Echo_udp

(** {1 The two-host echo scenario}

    Every echo experiment in the harness — the latency figures, the
    Table 5 breakdown, [demi stats], the determinism selfcheck, the
    Demiscope/Demiflight exporters and the observer-effect gate — runs
    this one world: server at index 1 (port 7), client at index 2,
    {!Apps.Echo} between them, with any set of recorders armed. *)

type recorder =
  | Trace of int  (** event trace with this ring capacity; source of the digest *)
  | Spans of int option  (** span recorder, with the SLO watchdog armed at this threshold (ns) *)
  | Capture  (** pcap tap on the fabric: wire and lost writers *)
  | Flight of int  (** flight ring with this capacity *)
  | Timeline of int  (** fabric/ring/TCP telemetry sampled at this interval (ns) *)

type echo_run = {
  world : world;
  server : Demikernel.Boot.node;
  client : Demikernel.Boot.node;
  rtts : (int * int) list;
      (** every echo in completion order: (RTT, client clock at completion) *)
  trace : Engine.Trace.t option;  (** [Some] iff [Trace] was armed; likewise below *)
  spans : Engine.Span.t option;
  capture : Net.Pcap.session option;
  flight : Engine.Flight.t option;
  timeline : Metrics.Timeseries.t option;
}

val echo :
  ?cost:Net.Cost.t ->
  ?loss:float ->
  ?seed:int64 ->
  ?persist:bool ->
  ?proto:echo_proto ->
  ?msg_size:int ->
  ?wrap:(int -> Demikernel.Pdpix.api -> Demikernel.Pdpix.api) ->
  ?recorders:recorder list ->
  count:int ->
  Demikernel.Boot.flavor ->
  echo_run
(** Run [count] closed-loop echos of [msg_size] (default 64) bytes over
    [proto] (default TCP) to completion and tear the world down.
    [persist] gives the server a disk and logs every message before the
    reply. [wrap index] interposes on the api of host [index] (1 =
    server, 2 = client), e.g. the ownership oracle. [recorders]
    (default none) are armed before the hosts boot. *)

val histogram : echo_run -> Metrics.Histogram.t
(** The RTTs, added in completion order. *)

val demi_echo_rtt :
  ?cost:Net.Cost.t ->
  ?persist:bool ->
  ?msg_size:int ->
  ?count:int ->
  proto:echo_proto ->
  Demikernel.Boot.flavor ->
  Metrics.Histogram.t
(** {!echo} with no recorders and [count] defaulting to
    {!default_count}; returns the RTT distribution. *)

val linux_echo_rtt :
  ?cost:Net.Cost.t ->
  ?persist:bool ->
  ?msg_size:int ->
  ?count:int ->
  proto:echo_proto ->
  unit ->
  Metrics.Histogram.t

val kb_echo_rtt :
  ?cost:Net.Cost.t ->
  ?msg_size:int ->
  ?count:int ->
  Baselines.Kb_lib.profile ->
  Metrics.Histogram.t

val raw_dpdk_rtt : ?cost:Net.Cost.t -> ?msg_size:int -> ?count:int -> unit -> Metrics.Histogram.t
val raw_rdma_rtt : ?cost:Net.Cost.t -> ?msg_size:int -> ?count:int -> unit -> Metrics.Histogram.t

val default_count : int ref
(** Echo iterations per measurement (settable by the CLI for quick
    runs). *)
