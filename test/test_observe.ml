(* The observer-effect gate (Harness.Observe, `demi observe --check`):
   every recorder set on every flavor passes, and the comparison really
   fails on runs that differ. *)

let check_bool = Alcotest.(check bool)

let flavors =
  [ Demikernel.Boot.Catnap_os; Demikernel.Boot.Catnip_os; Demikernel.Boot.Catmint_os ]

let all_ok lines = List.iter (fun (what, ok) -> check_bool what true ok) lines

(* One row of the gate's table, run from the suite of the recorder it
   covers: the named recorder sets on every flavor, lossless and at 5%
   loss, each compared with its bare run and its artifacts validated. *)
let arms_pass names () =
  let arms = List.filter (fun (arm, _) -> List.mem arm names) Harness.Observe.arms in
  check_bool "every named recorder set is a gate arm" true
    (List.length arms = List.length names);
  List.iter
    (fun flavor ->
      List.iter (fun loss -> all_ok (Harness.Observe.echo_gate ~loss flavor arms)) [ 0.; 0.05 ])
    flavors

let fleet_passes () = List.iter (fun flavor -> all_ok (Harness.Observe.fleet_gate flavor)) flavors

let test_gate_passes_everywhere () =
  List.iter
    (fun flavor ->
      let lines = Harness.Observe.gate flavor in
      all_ok lines;
      (* Every recorder set was really compared, at both loss rates. *)
      let name = Harness.Common.flavor_name flavor in
      let compared arm =
        List.exists
          (fun (what, _) ->
            String.starts_with ~prefix:(name ^ " " ^ arm ^ ": trace digest identical") what)
          lines
      in
      let arms =
        [ "spans"; "capture"; "flight"; "timeline"; "slo watchdog"; "all recorders" ]
        |> List.concat_map (fun arm -> [ "loss=0 " ^ arm; "loss=0.05 " ^ arm ])
      in
      let fleet =
        match flavor with
        | Demikernel.Boot.Catmint_os -> [ "txnstore causal" ]
        | _ -> [ "txnstore causal"; "relay causal" ]
      in
      List.iter
        (fun arm ->
          check_bool (name ^ " " ^ arm ^ " compared") true (compared arm))
        (arms @ fleet))
    flavors

let traced ?loss () =
  Harness.Observe.echo_probe
    (Harness.Common.echo ?loss ~count:16
       ~recorders:[ Harness.Common.Trace 65_536 ]
       Demikernel.Boot.Catnip_os)

let test_compare_fails_on_runs_that_differ () =
  let bare = traced () in
  (match Harness.Observe.compare_runs ~label:"rerun" bare (traced ()) with
  | [ (_, digest_ok); (_, latency_ok) ] ->
      check_bool "same seed, same run: digest ok" true digest_ok;
      check_bool "same seed, same run: latencies ok" true latency_ok
  | _ -> Alcotest.fail "expected a digest line and a latency line");
  match Harness.Observe.compare_runs ~label:"lossy" bare (traced ~loss:0.2 ()) with
  | [ (_, digest_ok); (_, latency_ok) ] ->
      check_bool "loss changes the run: digest FAIL" false digest_ok;
      check_bool "loss changes the run: latency FAIL" false latency_ok
  | _ -> Alcotest.fail "expected a digest line and a latency line"

(* A histogram fingerprint (count, p50, p99, p99.9, max over 1/32-wide
   buckets) misses one RTT moved by a nanosecond inside its bucket; the
   exact sequence does not. *)
let test_one_shifted_rtt_fails () =
  let bare = traced () in
  let shifted =
    {
      bare with
      Harness.Observe.latencies =
        List.mapi (fun i ns -> if i = 3 then ns - 1 else ns) bare.Harness.Observe.latencies;
    }
  in
  let fingerprint latencies =
    let h = Metrics.Histogram.create () in
    List.iter (Metrics.Histogram.add h) latencies;
    Metrics.Histogram.
      [ count h; p50 h; p99 h; p999 h; max h ]
  in
  check_bool "the old bucket fingerprint misses the shift" true
    (fingerprint bare.Harness.Observe.latencies = fingerprint shifted.Harness.Observe.latencies);
  match Harness.Observe.compare_runs ~label:"shifted" bare shifted with
  | [ (_, digest_ok); (_, latency_ok) ] ->
      check_bool "digest unchanged" true digest_ok;
      check_bool "exact latency sequence catches the shift" false latency_ok
  | _ -> Alcotest.fail "expected a digest line and a latency line"

let suite =
  [
    Alcotest.test_case "gate: every recorder set on every flavor" `Quick
      test_gate_passes_everywhere;
    Alcotest.test_case "gate: runs that differ FAIL" `Quick
      test_compare_fails_on_runs_that_differ;
    Alcotest.test_case "gate: one shifted RTT FAILs" `Quick test_one_shifted_rtt_fails;
  ]
