(* The observer-effect gate. Every recorder rests on one contract: arming
   it must not change the run. Catnip is deterministic and takes time as
   a parameter (§6.3), so the contract is checkable: the same seed with
   the recorder on and off must give a byte-identical trace digest and
   the exact same latency sequence. The gate runs the bare scenario,
   then each recorder set, compares every armed run with its bare run,
   and validates each artifact the armed run produced. *)

type probe = { digest : string; latencies : int list }

let echo_probe (r : Common.echo_run) =
  { digest = Engine.Trace.digest (Option.get r.trace); latencies = List.map fst r.rtts }

let compare_runs ~label bare armed =
  [
    (label ^ ": trace digest identical to the bare run", String.equal bare.digest armed.digest);
    ( Printf.sprintf "%s: latency sequence identical to the bare run (%d ops)" label
        (List.length bare.latencies),
      bare.latencies = armed.latencies );
  ]

let chrome_valid what json =
  match Chrome_trace.validate json with
  | Ok n -> (Printf.sprintf "%s valid (%d events)" what n, true)
  | Error why -> (Printf.sprintf "%s valid: %s" what why, false)

let breakdown_exact (b : Fig_breakdown.breakdown) =
  List.fold_left (fun acc (_, ns) -> acc + ns) b.other b.components = b.total

(* ---------- artifacts of one armed echo ---------- *)

let spans_artifacts (r : Common.echo_run) label spans =
  let last = Fig_breakdown.last_rtt r in
  let b = last.breakdown in
  let slo =
    match Engine.Span.slo_threshold spans with
    | None -> []
    | Some threshold ->
        let breached (op : Engine.Span.op) =
          match op.closed_at with Some t -> t - op.opened_at > threshold | None -> false
        in
        let outliers = Engine.Span.outliers spans in
        [
          ( label ^ ": watchdog captured outliers, each past the threshold",
            outliers <> [] && List.for_all breached outliers );
        ]
  in
  [
    ( label ^ ": breakdown components + other = last RTT",
      breakdown_exact b && b.total = last.rtt );
    chrome_valid (label ^ ": chrome trace")
      (Chrome_trace.export ~extra:[ ("demitrace", Fig_breakdown.breakdown_json b) ] spans);
  ]
  @ slo

let capture_artifacts label (session : Net.Pcap.session) =
  match Net.Pcap.parse (Net.Pcap.contents session.wire) with
  | Error why -> [ (label ^ ": capture parses: " ^ why, false) ]
  | Ok cap ->
      let n = List.length cap.packets in
      let rec monotone last = function
        | [] -> true
        | (p : Net.Pcap.packet) :: rest -> p.ts_ns >= last && monotone p.ts_ns rest
      in
      [
        (label ^ ": capture parses with bundled reader", true);
        ( label ^ ": capture is non-empty",
          n > 0 && n = Net.Pcap.frames_written session.wire );
        (label ^ ": capture timestamps monotone", monotone 0 cap.packets);
      ]

let timeline_artifacts label ts =
  let rows = Metrics.Timeseries.rows ts in
  let rec on_grid = function
    | (t0, _) :: ((t1, _) :: _ as rest) ->
        t1 - t0 = Metrics.Timeseries.interval_ns ts && on_grid rest
    | _ -> true
  in
  [
    (label ^ ": timeline samples taken", rows <> []);
    (label ^ ": timeline rows on the interval grid", on_grid rows);
    ( label ^ ": timeline shows fabric traffic",
      List.exists (fun (_, vals) -> List.exists (fun v -> v > 0) vals) rows );
  ]

let artifacts label (r : Common.echo_run) =
  let opt f = function Some x -> f label x | None -> [] in
  opt (spans_artifacts r) r.spans
  @ opt capture_artifacts r.capture
  @ opt (fun label ring -> [ (label ^ ": flight ring recorded", Engine.Flight.total ring > 0) ])
      r.flight
  @ opt timeline_artifacts r.timeline

(* ---------- the gate ---------- *)

let echo_count = 16
let slo_ns = 1_000 (* below every flavor's RTT, so the watchdog fires *)

let arms =
  let open Common in
  [
    ("spans", [ Spans None ]);
    ("capture", [ Capture ]);
    ("flight", [ Flight 4096 ]);
    ("timeline", [ Timeline 10_000 ]);
    ("slo watchdog", [ Spans (Some slo_ns) ]);
    ("all recorders", [ Spans (Some slo_ns); Capture; Flight 4096; Timeline 10_000 ]);
  ]

let echo_gate ~loss flavor arms =
  let run recorders =
    Common.echo ~loss ~count:echo_count ~recorders:(Common.Trace 65_536 :: recorders) flavor
  in
  let bare = echo_probe (run []) in
  List.concat_map
    (fun (arm, recorders) ->
      let label = Printf.sprintf "%s loss=%g %s" (Common.flavor_name flavor) loss arm in
      let r = run recorders in
      compare_runs ~label bare (echo_probe r) @ artifacts label r)
    arms

let fleet_app_gate ~app scenario flavor =
  let label = Printf.sprintf "%s %s causal" (Common.flavor_name flavor) app in
  let probe (r : Fleet.run) = { digest = r.digest; latencies = r.latencies } in
  let bare : Fleet.run = scenario ~recording:false in
  let on : Fleet.run = scenario ~recording:true in
  let reqs = Fleet.dag ?spans:on.spans (Option.get on.causal) in
  compare_runs ~label (probe bare) (probe on)
  @ [
      ( label ^ ": every request stitched into a DAG",
        List.length reqs = List.length on.latencies );
      (label ^ ": every critical path sums exactly", List.for_all Fleet.critical_exact reqs);
      (label ^ ": profile rows sum exactly", Fleet.profile_exact (Fleet.profile ~app reqs));
      chrome_valid (label ^ ": fleet chrome trace") (Fleet.chrome_export ~app reqs);
    ]

let fleet_gate flavor =
  fleet_app_gate ~app:"txnstore" (fun ~recording -> Fleet.txnstore ~recording flavor) flavor
  @
  match flavor with
  | Demikernel.Boot.Catmint_os -> []
  | _ -> fleet_app_gate ~app:"relay" (fun ~recording -> Fleet.relay ~recording flavor) flavor

let gate flavor =
  echo_gate ~loss:0. flavor arms @ echo_gate ~loss:0.05 flavor arms @ fleet_gate flavor
