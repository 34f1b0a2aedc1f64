type world = { sim : Engine.Sim.t; fabric : Net.Fabric.t; cost : Net.Cost.t }

let default_count = ref 2_000

let make_world ?(cost = Net.Cost.bare_metal) ?(loss = 0.) ?(seed = 1L) () =
  let sim = Engine.Sim.create ~seed () in
  let fabric = Net.Fabric.create sim ~cost ~loss () in
  { sim; fabric; cost }

let run_world ?(horizon_s = 600) w =
  Engine.Sim.run ~until:(Engine.Clock.s horizon_s) w.sim;
  Engine.Sim.teardown w.sim

let flavor_name = function
  | Demikernel.Boot.Catnap_os -> "catnap"
  | Demikernel.Boot.Catnip_os -> "catnip"
  | Demikernel.Boot.Catmint_os -> "catmint"

type echo_proto = Echo_tcp | Echo_udp

(* ---------- the two-host echo scenario ---------- *)

type recorder =
  | Trace of int
  | Spans of int option
  | Capture
  | Flight of int
  | Timeline of int

type echo_run = {
  world : world;
  server : Demikernel.Boot.node;
  client : Demikernel.Boot.node;
  rtts : (int * int) list;
  trace : Engine.Trace.t option;
  spans : Engine.Span.t option;
  capture : Net.Pcap.session option;
  flight : Engine.Flight.t option;
  timeline : Metrics.Timeseries.t option;
}

(* The sampler reads counters and queue depths the run maintains anyway;
   it is driven between events, so nothing is scheduled. *)
let arm_timeline w ~server ~client interval_ns =
  let ts = Metrics.Timeseries.create ~interval_ns in
  let fabric_counter name field =
    Metrics.Timeseries.counter ts name (fun () -> field (Net.Fabric.stats w.fabric))
  in
  fabric_counter "fabric_bytes" (fun s -> s.Net.Fabric.bytes_carried);
  fabric_counter "fabric_frames" (fun s -> s.Net.Fabric.frames_delivered);
  fabric_counter "fabric_drops" (fun s -> s.Net.Fabric.frames_dropped);
  Option.iter
    (fun nic -> Metrics.Timeseries.gauge ts "server_rx_ring" (fun () -> Net.Dpdk_sim.rx_pending nic))
    server.Demikernel.Boot.nic;
  Option.iter
    (fun nic -> Metrics.Timeseries.gauge ts "client_rx_ring" (fun () -> Net.Dpdk_sim.rx_pending nic))
    client.Demikernel.Boot.nic;
  Option.iter
    (fun rnic -> Metrics.Timeseries.gauge ts "server_cq" (fun () -> Net.Rdma_sim.cq_pending rnic))
    server.Demikernel.Boot.rnic;
  Option.iter
    (fun cn ->
      let stack = Demikernel.Catnip.stack cn in
      Metrics.Timeseries.gauge ts "client_cwnd" (fun () -> Tcp.Stack.agg_cwnd stack);
      Metrics.Timeseries.gauge ts "client_inflight" (fun () ->
          Tcp.Stack.agg_bytes_in_flight stack);
      Metrics.Timeseries.counter ts "client_rtx" (fun () -> Tcp.Stack.total_retransmits stack))
    client.Demikernel.Boot.catnip;
  Engine.Sim.set_sampler w.sim ~interval:interval_ns (fun now ->
      Metrics.Timeseries.sample ts ~now);
  ts

let echo ?cost ?loss ?seed ?(persist = false) ?(proto = Echo_tcp) ?(msg_size = 64) ?wrap
    ?(recorders = []) ~count flavor =
  let w = make_world ?cost ?loss ?seed () in
  let armed f = List.find_map f recorders in
  let trace =
    armed (function
      | Trace capacity -> Some (Engine.Sim.enable_trace ~capacity w.sim)
      | _ -> None)
  in
  let spans =
    armed (function
      | Spans slo ->
          let s = Engine.Sim.enable_spans w.sim in
          Option.iter (fun threshold_ns -> Engine.Span.set_slo s ~threshold_ns) slo;
          Some s
      | _ -> None)
  in
  let flight =
    armed (function
      | Flight capacity -> Some (Engine.Sim.enable_flight ~capacity w.sim)
      | _ -> None)
  in
  let capture = armed (function Capture -> Some (Net.Pcap.tap w.fabric) | _ -> None) in
  let server = Demikernel.Boot.make w.sim w.fabric ~index:1 ~with_disk:persist flavor in
  let client = Demikernel.Boot.make w.sim w.fabric ~index:2 flavor in
  let timeline =
    armed (function
      | Timeline interval_ns -> Some (arm_timeline w ~server ~client interval_ns)
      | _ -> None)
  in
  let wrap_for index = Option.map (fun f -> f index) wrap in
  let rtts = ref [] in
  let record rtt = rtts := (rtt, Demikernel.Host.now client.Demikernel.Boot.host) :: !rtts in
  let dst = Demikernel.Boot.endpoint server 7 in
  (match proto with
  | Echo_tcp ->
      Demikernel.Boot.run_app server ?wrap:(wrap_for 1) (Apps.Echo.server ~port:7 ~persist);
      Demikernel.Boot.run_app client ?wrap:(wrap_for 2)
        (Apps.Echo.client ~dst ~msg_size ~count ~record)
  | Echo_udp ->
      Demikernel.Boot.run_app server ?wrap:(wrap_for 1) (Apps.Echo.udp_server ~port:7);
      Demikernel.Boot.run_app client ?wrap:(wrap_for 2)
        (Apps.Echo.udp_client ~dst ~src_port:5001 ~msg_size ~count ~record));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  run_world w;
  Option.iter (fun _ -> Net.Pcap.untap w.fabric) capture;
  Option.iter (fun _ -> Engine.Sim.clear_sampler w.sim) timeline;
  { world = w; server; client; rtts = List.rev !rtts; trace; spans; capture; flight; timeline }

let histogram r =
  let h = Metrics.Histogram.create () in
  List.iter (fun (rtt, _) -> Metrics.Histogram.add h rtt) r.rtts;
  h

let demi_echo_rtt ?cost ?persist ?msg_size ?count ~proto flavor =
  let count = match count with Some c -> c | None -> !default_count in
  histogram (echo ?cost ?persist ?msg_size ~proto ~count flavor)

let linux_echo_rtt ?cost ?(persist = false) ?(msg_size = 64) ?count ~proto () =
  let count = match count with Some c -> c | None -> !default_count in
  let w = make_world ?cost () in
  let server_kernel =
    Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:1 ~with_disk:persist ()
  in
  let client_kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:2 () in
  let rtts = Metrics.Histogram.create () in
  (match proto with
  | Echo_tcp ->
      Baselines.Linux_apps.echo_tcp_server w.sim server_kernel ~port:7 ~persist;
      Baselines.Linux_apps.echo_tcp_client w.sim client_kernel
        ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7)
        ~msg_size ~count
        ~record:(Metrics.Histogram.add rtts)
        ~on_done:(fun () -> ())
  | Echo_udp ->
      Baselines.Linux_apps.echo_udp_server w.sim server_kernel ~port:7 ~persist;
      Baselines.Linux_apps.echo_udp_client w.sim client_kernel
        ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7)
        ~src_port:5001 ~msg_size ~count
        ~record:(Metrics.Histogram.add rtts)
        ~on_done:(fun () -> ()));
  run_world w;
  rtts

let kb_echo_rtt ?cost ?(msg_size = 64) ?count profile =
  let count = match count with Some c -> c | None -> !default_count in
  let w = make_world ?cost () in
  let rtts = Metrics.Histogram.create () in
  Baselines.Kb_lib.echo profile w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size ~count
    ~record:(Metrics.Histogram.add rtts)
    ~on_done:(fun () -> ());
  run_world w;
  rtts

let raw_dpdk_rtt ?cost ?(msg_size = 64) ?count () =
  let count = match count with Some c -> c | None -> !default_count in
  let w = make_world ?cost () in
  let rtts = Metrics.Histogram.create () in
  Baselines.Raw.testpmd_echo w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size ~count
    ~record:(Metrics.Histogram.add rtts)
    ~on_done:(fun () -> ());
  run_world w;
  rtts

let raw_rdma_rtt ?cost ?(msg_size = 64) ?count () =
  let count = match count with Some c -> c | None -> !default_count in
  let w = make_world ?cost () in
  let rtts = Metrics.Histogram.create () in
  Baselines.Raw.perftest_pingpong w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size
    ~count
    ~record:(Metrics.Histogram.add rtts)
    ~on_done:(fun () -> ());
  run_world w;
  rtts
