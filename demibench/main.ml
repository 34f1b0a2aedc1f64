(* Demibench: one benchmark for host cost and modelled latency.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs rounds of workload W — each a fresh world, set up, driven
   through the same seeded schedule and checked — until S seconds have
   gone, and prints one JSON line last. With --trace 0 every round is
   untraced and the line holds the end-to-end metrics. With --trace 1
   untraced and traced rounds alternate; the line holds the per-layer
   metrics of the traced rounds, and every round must agree with every
   other on all virtual-time results (the observer-effect check).
   Host-time metrics are medians over rounds. See README.md. *)

let workloads = [ "kv-read-small"; "kv-write-large"; "txn-many-conns" ]

let kv_read_small = { Kv.value_size = 64; get_ratio = 0.9; rate_per_sec = 400_000.; ops = 120_000 }
let kv_write_large = { Kv.value_size = 16_384; get_ratio = 0.1; rate_per_sec = 100_000.; ops = 32_000 }

let round workload ~seed ~traced =
  match workload with
  | "kv-read-small" -> Kv.round kv_read_small ~seed ~traced
  | "kv-write-large" -> Kv.round kv_write_large ~seed ~traced
  | _ -> Txn.round ~seed ~traced

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let per_op (r : Round.t) x = float_of_int x /. float_of_int (max 1 r.Round.completed)
let host_ops_per_s (r : Round.t) = float_of_int r.Round.completed /. r.Round.cpu_s

(* A check that failed, with the first reason seen. *)
let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let check_round workload i (r : Round.t) fp0 =
  let fp = Round.fingerprint r in
  if fp <> fp0 then
    error "%s round %d: virtual-time results differ from round 0 (%s vs %s)" workload i fp fp0;
  if Round.failed r > 0 then
    error "%s round %d: %d wrong, %d failed, %d unfinished of %d (%s)" workload i r.Round.wrong
      r.Round.failed_ops r.Round.unfinished r.Round.attempted r.Round.first_error;
  if r.Round.sanitizer_errors > 0 then
    error "%s round %d: %d sanitizer or gc-budget errors" workload i r.Round.sanitizer_errors;
  match r.Round.backlog with
  | Some (early, late) ->
      error "%s round %d: backlog grew from %.1f to %.1f outstanding ops" workload i early late
  | None -> ()

(* The major heap's high-water mark once the first round is done, in MB.
   Later rounds can only raise it through fragmentation, and how many
   rounds fit in a run depends on the machine's speed. *)
let peak_heap_mb = ref 0.

let run workload ~seed ~seconds ~trace =
  let t0 = Ledger.mono_ns () in
  let elapsed () = float_of_int (Ledger.mono_ns () - t0) /. 1e9 in
  let min_rounds = if trace then 2 else 1 in
  let rec go i acc fp0 =
    let traced = trace && i mod 2 = 1 in
    let r = round workload ~seed ~traced in
    let fp0 = match fp0 with Some f -> f | None -> Round.fingerprint r in
    check_round workload i r fp0;
    if i = 0 then peak_heap_mb := float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6;
    let acc = (traced, r) :: acc in
    let n = i + 1 in
    (* Stop before a round that would overrun the budget. *)
    if n >= min_rounds && elapsed () *. float_of_int (n + 1) /. float_of_int n > seconds then
      List.rev acc
    else go n acc (Some fp0)
  in
  go 0 [] None

let metric name unit v = (name, unit, v)

let end_to_end rounds =
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) rounds in
  let r0 = List.hd untraced in
  let med f = median (List.map f untraced) in
  let attempted = r0.Round.attempted in
  let lat = r0.Round.lat in
  [
    metric "host_ops_per_s" "1/s" (med host_ops_per_s);
    metric "alloc_words_per_op" "words" (med (fun r -> per_op r r.Round.minor_words));
    metric "major_words_per_op" "words"
      (med (fun r -> r.Round.major_words /. float_of_int (max 1 r.Round.completed)));
    metric "peak_heap_mb" "MB" !peak_heap_mb;
    metric "setup_s" "s" (med (fun r -> r.Round.setup_s));
    metric "virt_mean_ns" "ns" (Metrics.Hdr.mean lat);
    metric "virt_p99_ns" "ns" (float_of_int (Metrics.Hdr.p99 lat));
    metric "virt_p999_ns" "ns" (float_of_int (Metrics.Hdr.p999 lat));
    metric "virt_kops" "kops/s"
      (float_of_int r0.Round.completed *. 1e6 /. float_of_int (max 1 r0.Round.virt_ns));
    metric "ok_ratio" "ratio"
      (1. -. (float_of_int (Round.failed r0) /. float_of_int (max 1 attempted)));
  ]

let per_layer rounds =
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) rounds in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) rounds in
  let r0 = List.hd traced in
  let med f = median (List.map f traced) in
  let ledger r =
    match r.Round.ledger with Some l -> l | None -> failwith "traced round without a ledger"
  in
  (* Section rows give calls, the section's share of the ledger's host
     ns, and minor words per op; a section's ns/op is its share times
     [ledger.ns_per_op]. Shares, not ns, so that a section a workload
     never enters reads a ratio of 0 rather than a constant time. *)
  let sections =
    List.concat
      (List.mapi
         (fun i name ->
           let get f r =
             let s, _, _ = ledger r in
             (f s).(i)
           in
           let share r =
             let _, ns, _ = ledger r in
             float_of_int (get (fun s -> s.Ledger.s_ns) r) /. float_of_int (max 1 ns)
           in
           [
             metric (name ^ ".calls") "count" (float_of_int (get (fun s -> s.Ledger.s_calls) r0));
             metric (name ^ ".share") "ratio" (med share);
             metric (name ^ ".words_per_op") "words"
               (med (fun r -> per_op r (get (fun s -> s.Ledger.s_words) r)));
           ])
         (Array.to_list Ledger.names))
  in
  let total_ns r = let _, ns, _ = ledger r in ns in
  let total_words r = let _, _, w = ledger r in w in
  let row name unit =
    metric name unit (match List.assoc_opt name r0.Round.rows with Some v -> v | None -> 0.)
  in
  sections
  @ [
      metric "ledger.ns_per_op" "ns" (med (fun r -> per_op r (total_ns r)));
      metric "ledger.words_per_op" "words" (med (fun r -> per_op r (total_words r)));
      row "tcp.timer_activity_per_op" "count";
      row "tcp.conns_peak" "count";
      row "tcp.retransmits" "count";
      row "heap.bytes_copied_per_op" "bytes";
      row "heap.uaf_deferred" "count";
      metric "engine.events_per_op" "count" (per_op r0 r0.Round.events);
      metric "engine.ns_per_event" "ns"
        (med (fun r -> float_of_int (total_ns r) /. float_of_int (max 1 r.Round.events)));
      row "dsched.switches_per_op" "count";
      metric "fabric.frames_per_op" "count" (per_op r0 r0.Round.frames);
      metric "fabric.bytes_per_op" "bytes" (per_op r0 r0.Round.bytes);
      row "dpdk.rx_dropped" "count";
      row "virt.app.share" "ratio";
      row "virt.sched.share" "ratio";
      row "virt.libos.share" "ratio";
      row "virt.proto.share" "ratio";
      row "virt.device.share" "ratio";
      row "virt.wire.share" "ratio";
      row "virt.copy.share" "ratio";
      metric "virt.samples" "count" (float_of_int (Metrics.Hdr.count r0.Round.lat));
      metric "polls_per_op" "count" (per_op r0 r0.Round.polls);
      metric "busy_poll_ratio" "ratio"
        (float_of_int r0.Round.useful_polls /. float_of_int (max 1 r0.Round.polls));
      metric "gen_late_p99_ns" "ns" (float_of_int (Metrics.Hdr.p99 r0.Round.gen_late));
      metric "trace_overhead" "ratio"
        (median (List.map host_ops_per_s untraced) /. median (List.map host_ops_per_s traced));
    ]

let json_number name v =
  if not (Float.is_finite v) then begin
    error "metric %s is not a finite number" name;
    "0"
  end
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let usage () =
  prerr_endline
    "usage: main.exe --workload kv-read-small|kv-write-large|txn-many-conns --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some s -> s | None -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0. || !trace < 0 then
    usage ();
  let trace = !trace = 1 in
  let rounds = run !workload ~seed:!seed ~seconds:!seconds ~trace in
  let metrics = if trace then per_layer rounds else end_to_end rounds in
  let attempted = List.fold_left (fun acc (_, r) -> acc + r.Round.attempted) 0 rounds in
  let failed = List.fold_left (fun acc (_, r) -> acc + Round.failed r) 0 rounds in
  Printf.printf "demibench %s seed=%d rounds=%d%s\n" !workload !seed (List.length rounds)
    (if trace then " (untraced and traced alternate)" else "");
  List.iteri
    (fun i (t, r) ->
      Printf.printf "  round %d%s: setup %.3f s, measured %.3f s CPU, %d/%d ops, %s\n" i
        (if t then " traced" else "") r.Round.setup_s r.Round.cpu_s r.Round.completed
        r.Round.attempted (Round.fingerprint r))
    rounds;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %16.4f %s\n" name v unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number name v) unit)
         metrics)
  in
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) (List.rev !errors);
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!errors = []) attempted failed body;
  print_newline ()
