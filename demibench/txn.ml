(* txn-many-conns: the raw-stack world of `bench -- scale` (bench/scale.ml,
   compiled into this benchmark unchanged) at 16384 conns over two
   client stacks. The wrapper modules Tcp, Memory and Apps in this
   directory shadow the libraries for that file only: they time each
   call into a layer, seed its schedule from the benchmark's seed, and
   check every TxnStore reply ([Txncheck]). *)

module Stack = Demibench_orig.Tcp.Stack
module Heap = Demibench_orig.Memory.Heap
module Pool = Demibench_orig.Memory.Pool

let conns = 16_384
let ops_per_conn = 6

let heap_errors h =
  match Heap.sanitizer_report h with
  | Some r -> r.Heap.canary_violations + r.Heap.double_frees
  | None -> 0

let copy_hdr h =
  let c = Metrics.Hdr.create () in
  Metrics.Hdr.merge c h;
  c

let round ~seed ~traced =
  Heap.set_sanitize_default true;
  Apps.Loadgen.seed := seed;
  Txncheck.reset ();
  Tcp.Stack.created := [];
  Memory.Heap.created := [];
  Memory.Gcbudget.set_armed true;
  Memory.Gcbudget.reset ();
  Ledger.trace_round := traced;
  Ledger.measuring := false;
  Gc.full_major ();
  let r0 = Ledger.mark_now () in
  let p =
    Scale.run_point ~conns ~ops_per_conn ~churn_fraction:0.1 ~churn_after:3
      ~rate_per_conn:20_000. ~keys:1024 ~value_size:32 ()
  in
  let ledger =
    if traced then begin
      let tot_ns, tot_words = Ledger.stop () in
      Some (Ledger.snapshot (), tot_ns, tot_words)
    end
    else None
  in
  let r1 = Ledger.mark_now () in
  Memory.Gcbudget.set_armed false;
  let m0 = !Ledger.measure_start in
  let stacks = !Tcp.Stack.created in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stacks in
  let per_op x = float_of_int x /. float_of_int (max 1 p.Scale.completed) in
  let server = List.nth stacks (List.length stacks - 1) in
  let hstats = List.map Heap.stats !Memory.Heap.created in
  let hsum f = List.fold_left (fun acc s -> acc + f s) 0 hstats in
  {
    Round.setup_s = float_of_int (m0.Ledger.cpu - r0.Ledger.cpu) /. 1e9;
    cpu_s = float_of_int (r1.Ledger.cpu - m0.Ledger.cpu) /. 1e9;
    minor_words = r1.Ledger.minor_w - m0.Ledger.minor_w;
    major_words = r1.Ledger.major_w -. m0.Ledger.major_w;
    attempted = p.Scale.ops;
    completed = p.Scale.completed;
    wrong =
      !Txncheck.wrong
      + abs (!Txncheck.replies - p.Scale.completed)
      (* The model's latencies must be the ones the world measured. *)
      + Bool.to_int
          (Metrics.Hdr.p50 Txncheck.lat <> p.Scale.p50_ns
          || Metrics.Hdr.p999 Txncheck.lat <> p.Scale.p999_ns);
    failed_ops = 0;
    unfinished = p.Scale.ops - p.Scale.completed;
    first_error = !Txncheck.first_error;
    lat = copy_hdr Txncheck.lat;
    virt_ns = !Txncheck.last_reply_ns - !Txncheck.first_at;
    gen_late = copy_hdr Txncheck.gen_late;
    events = p.Scale.polls;
    frames = p.Scale.frames;
    bytes = !Txncheck.frame_bytes;
    polls = p.Scale.polls;
    useful_polls = p.Scale.polls - p.Scale.steady_polls;
    sanitizer_errors =
      p.Scale.pool_errors + List.fold_left (fun acc h -> acc + heap_errors h) 0 !Memory.Heap.created
      + p.Scale.gc_poll_violations;
    backlog = Backlog.growing Txncheck.backlog;
    ledger;
    rows =
      [
        ("tcp.timer_activity_per_op", per_op (sum Stack.timer_activity));
        ("tcp.conns_peak", float_of_int (Stack.conn_stats server).Stack.peak);
        ("tcp.retransmits", float_of_int (sum Stack.total_retransmits));
        ("heap.bytes_copied_per_op", per_op (hsum (fun s -> s.Heap.bytes_copied)));
        ("heap.uaf_deferred", float_of_int (hsum (fun s -> s.Heap.uaf_protected)));
      ];
  }
