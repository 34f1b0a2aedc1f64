(* Wall-clock performance harness (PR 3; baselines re-anchored for the
   PR 6 allocation-discipline work).

   Everything else in bench/ measures *virtual* time; this mode measures
   how fast the simulator itself runs on the host: real events/sec,
   frames/sec and GC allocation for (a) the standard Catnip echo world
   and (b) a 10k-connection churn scenario that hammers the per-poll
   timer/ack paths (`next_timer` / `on_timer` / `flush_acks`) exactly
   the way the Catnip fast path does.  Results go to BENCH_pr6.json.
   Since PR 6 the headline metric is GC allocation: the Demialloc pass
   and gc-budget oracle drove the steady-poll paths to zero words, and
   the gc_reduction keys report the whole-run win against the
   pre-change tree.

   The churn driver is a deterministic two-stack mini-world (same shape
   as test_tcp.ml's Pair harness): stacks joined by a constant-latency
   frame queue, a manual clock, and a poll loop that mirrors
   Catnip.fast_path — deliver a burst of frames, then flush acks, fire
   timers and peek the next deadline on both stacks.  Before the timer
   wheel, each of those peeks/fires cost O(n log n) in live connections;
   the whole point of this harness is to make that cost visible in real
   seconds. *)

module Stack = Tcp.Stack
module Heap = Memory.Heap

type sample = {
  label : string;
  wall_s : float;
  events : int; (* sim events (echo) or poll iterations (churn) *)
  frames : int;
  gc_alloc_mb : float;
  ops : int; (* echos completed / connections churned *)
}

let time_and_gc f =
  let gc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.allocated_bytes () in
  (r, t1 -. t0, (gc1 -. gc0) /. 1_048_576.)

(* --- Scenario 1: the standard echo world, wall-clock edition --- *)

let echo ~count () =
  let sim = Engine.Sim.create ~seed:1L () in
  let fabric = Net.Fabric.create sim ~cost:Net.Cost.bare_metal () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let done_ = ref 0 in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7 ~persist:false);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:64 ~count
       ~record:(fun _ -> incr done_));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  let (), wall_s, gc_alloc_mb =
    time_and_gc (fun () ->
        Engine.Sim.run ~until:(Engine.Clock.s 600) sim;
        Engine.Sim.teardown sim)
  in
  {
    label = "echo";
    wall_s;
    events = Engine.Sim.events_processed sim;
    frames = (Net.Fabric.stats fabric).Net.Fabric.frames_delivered;
    gc_alloc_mb;
    ops = !done_;
  }

(* --- Scenario 2: 10k-connection churn --- *)

(* Per-client-connection app state: how many request/response rounds
   remain, and how many echo bytes of the current round have arrived. *)
type churn_client = { mutable rounds_left : int; mutable got : int }

let churn ?(burst = 64) ~conns:n ~rounds ~msg_size () =
  let latency = 1_000 in
  let clock = ref 0 in
  let frames = ref 0 in
  let polls = ref 0 in
  (* Constant latency means arrival order == send order: a FIFO queue
     keeps the driver's own cost O(1)/frame so the stacks dominate. *)
  let q : (int * int * string) Queue.t = Queue.create () in
  let heap_a = Heap.create ~mode:Heap.Pool_backed () in
  let heap_b = Heap.create ~mode:Heap.Pool_backed () in
  (* Deferred app work: events fire synchronously inside [input], so
     callbacks only record; the poll loop below does the API calls. *)
  let established_a : Stack.conn Queue.t = Queue.create () in
  let readable_a : Stack.conn Queue.t = Queue.create () in
  let readable_b : Stack.conn Queue.t = Queue.create () in
  let accept_ready : Stack.listener Queue.t = Queue.create () in
  let closed_a = ref 0 and closed_b = ref 0 in
  let ev_a = function
    | Stack.Established c -> Queue.add c established_a
    | Stack.Readable c -> Queue.add c readable_a
    | Stack.Closed _ | Stack.Reset _ -> incr closed_a
    | _ -> ()
  and ev_b = function
    | Stack.Accept_ready l -> Queue.add l accept_ready
    | Stack.Readable c -> Queue.add c readable_b
    | Stack.Closed _ | Stack.Reset _ -> incr closed_b
    | _ -> ()
  in
  let mk_iface idx peer =
    Tcp.Iface.create
      ~mac:(Net.Addr.Mac.of_index idx)
      ~ip:(Net.Addr.Ip.of_index idx)
      ~clock:(fun () -> !clock)
      ~tx_frame:(fun f -> Queue.add (!clock + latency, peer, f) q)
      ()
  in
  let a =
    Stack.create ~iface:(mk_iface 1 1) ~heap:heap_a ~prng:(Engine.Prng.create 11L)
      ~events:ev_a ()
  in
  let b =
    Stack.create ~iface:(mk_iface 2 0) ~heap:heap_b ~prng:(Engine.Prng.create 22L)
      ~events:ev_b ()
  in
  let stacks = [| a; b |] in
  let _listener = Stack.tcp_listen b ~port:7 ~backlog:(n + 16) in
  let clients : (int, churn_client) Hashtbl.t = Hashtbl.create (2 * n) in
  let send_msg conn =
    let buf = Heap.alloc_of_string heap_a (String.make msg_size 'x') in
    Stack.tcp_send conn [ buf ];
    (* Zero-copy discipline: the stack holds per-segment refs; the app
       drops its own reference right after the push (echo-server idiom). *)
    Heap.free buf
  in
  let drain_client conn =
    let st = Hashtbl.find clients (Stack.conn_id conn) in
    let rec go () =
      match Stack.tcp_recv conn with
      | `Data buf ->
          st.got <- st.got + Heap.length buf;
          Heap.free buf;
          go ()
      | `Eof | `Nothing -> ()
    in
    go ();
    if st.got >= msg_size then begin
      st.got <- st.got - msg_size;
      st.rounds_left <- st.rounds_left - 1;
      if st.rounds_left > 0 then send_msg conn else Stack.tcp_close conn
    end
  in
  let drain_server conn =
    let rec go () =
      match Stack.tcp_recv conn with
      | `Data buf ->
          Stack.tcp_send conn [ buf ];
          Heap.free buf;
          go ()
      | `Eof ->
          if Stack.conn_state conn = Stack.Close_wait then Stack.tcp_close conn
      | `Nothing -> ()
    in
    go ()
  in
  let app_work () =
    let worked = ref false in
    while not (Queue.is_empty accept_ready) do
      worked := true;
      let l = Queue.pop accept_ready in
      let rec accept_all () =
        match Stack.tcp_accept l with
        | Some c ->
            drain_server c;
            accept_all ()
        | None -> ()
      in
      accept_all ()
    done;
    while not (Queue.is_empty established_a) do
      worked := true;
      let c = Queue.pop established_a in
      Hashtbl.replace clients (Stack.conn_id c) { rounds_left = rounds; got = 0 };
      send_msg c
    done;
    while not (Queue.is_empty readable_a) do
      worked := true;
      drain_client (Queue.pop readable_a)
    done;
    while not (Queue.is_empty readable_b) do
      worked := true;
      drain_server (Queue.pop readable_b)
    done;
    !worked
  in
  let opt v = match v with Some d -> d | None -> max_int in
  let run () =
    (* Open everything up front: 10k SYNs hit the listener in bursts. *)
    for _ = 1 to n do
      ignore (Stack.tcp_connect a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 7))
    done;
    let guard = ref 50_000_000 in
    let finished () = !closed_a >= n && !closed_b >= n in
    let continue = ref true in
    while !continue do
      decr guard;
      if !guard = 0 then failwith "churn: no quiescence";
      (* Deliver one burst of due frames (catnip rx_burst analogue). *)
      let delivered = ref 0 in
      while
        !delivered < burst
        && (not (Queue.is_empty q))
        &&
        let at, _, _ = Queue.peek q in
        at <= !clock
      do
        let _, dest, frame = Queue.pop q in
        Stack.input stacks.(dest) frame;
        incr delivered;
        incr frames
      done;
      (* The per-poll timer/ack work this bench exists to measure: the
         Catnip fast path runs these after every burst, plus a
         next-deadline peek when deciding whether to park. *)
      Stack.flush_acks a;
      Stack.flush_acks b;
      Stack.on_timer a;
      Stack.on_timer b;
      incr polls;
      let worked = app_work () in
      if (not worked) && !delivered = 0 then
        if finished () && Queue.is_empty q then continue := false
        else begin
          (* Nothing due now: park until the next frame arrival or timer
             deadline, whichever is first. *)
          let next_frame = if Queue.is_empty q then max_int else (fun (at, _, _) -> at) (Queue.peek q) in
          let t = min (min (opt (Stack.next_timer a)) (opt (Stack.next_timer b))) next_frame in
          if t = max_int then continue := false (* deadlocked; report what we have *)
          else clock := max !clock t
        end
    done
  in
  let (), wall_s, gc_alloc_mb = time_and_gc run in
  if !closed_a < n || !closed_b < n then
    Printf.eprintf "churn: WARNING only %d/%d (a) %d/%d (b) conns closed\n%!" !closed_a n
      !closed_b n;
  {
    label = "churn";
    wall_s;
    events = !polls;
    frames = !frames;
    gc_alloc_mb;
    ops = n;
  }

(* --- Baseline (pre-Demialloc) reference numbers ---

   Measured with this exact harness on the tree as of commit 261ad25
   (the PR 6 seed, before the hot-path allocation work), same machine,
   same settings (echo count=5000, churn conns=10000 rounds=1 burst=64).
   They are embedded so the committed bench can always report the
   current tree's wall-clock speedup and GC-allocation reduction
   against the pre-change paths. *)

let baseline_commit = "261ad25"
let baseline_echo_count = 5_000
let baseline_echo_wall_s = 0.1284
let baseline_echo_gc_mb = 160.1
let baseline_churn_conns = 10_000
let baseline_churn_wall_s = 0.1800
let baseline_churn_gc_mb = 184.4

let per_sec count wall = if wall > 0. then float_of_int count /. wall else 0.

(* Numbers for the JSON record, rounded as the report prints them:
   [fixed n] to n decimals, [whole] to an integer. *)
let fixed n x =
  let k = 10. ** float_of_int n in
  Metrics.Json.Float (Float.round (x *. k) /. k)

let whole x = Metrics.Json.Int (Float.to_int (Float.round x))
let ints kvs = List.map (fun (k, v) -> (k, Metrics.Json.Int v)) kvs

let write_json path doc =
  let oc = open_out path in
  output_string oc (Metrics.Json.to_string doc);
  output_char oc '\n';
  close_out oc

let sample_json s =
  Metrics.Json.(
    Obj
      [
        ("wall_s", fixed 4 s.wall_s); ("events", Int s.events);
        ("events_per_sec", whole (per_sec s.events s.wall_s)); ("frames", Int s.frames);
        ("frames_per_sec", whole (per_sec s.frames s.wall_s)); ("gc_alloc_mb", fixed 1 s.gc_alloc_mb);
        ("ops", Int s.ops);
      ])

let run ~quick ?(out = "BENCH_pr6.json") () =
  let echo_count = if quick then 500 else baseline_echo_count in
  let e = echo ~count:echo_count () in
  Printf.printf "wallclock echo : %.3fs  %d events (%.0f/s)  %d frames (%.0f/s)  %.1f MB alloc\n%!"
    e.wall_s e.events (per_sec e.events e.wall_s) e.frames (per_sec e.frames e.wall_s)
    e.gc_alloc_mb;
  let c = churn ~conns:baseline_churn_conns ~rounds:1 ~msg_size:64 () in
  Printf.printf
    "wallclock churn: %.3fs  %d polls (%.0f/s)  %d frames (%.0f/s)  %.1f MB alloc  (%d conns)\n%!"
    c.wall_s c.events (per_sec c.events c.wall_s) c.frames (per_sec c.frames c.wall_s)
    c.gc_alloc_mb c.ops;
  let churn_speedup =
    if baseline_churn_wall_s > 0. then baseline_churn_wall_s /. c.wall_s else 0.
  in
  (* Per-echo wall time / allocation are the scale-free comparisons
     (quick mode runs fewer echos than the baseline measurement did);
     churn always runs the full connection count, so its GC ratio is
     direct. *)
  let echo_us_per_op = 1e6 *. e.wall_s /. float_of_int (max 1 e.ops) in
  let baseline_echo_us_per_op =
    1e6 *. baseline_echo_wall_s /. float_of_int baseline_echo_count
  in
  let echo_gc_kb_per_op = 1024. *. e.gc_alloc_mb /. float_of_int (max 1 e.ops) in
  let baseline_echo_gc_kb_per_op =
    1024. *. baseline_echo_gc_mb /. float_of_int baseline_echo_count
  in
  let gc_reduction_echo =
    if echo_gc_kb_per_op > 0. then baseline_echo_gc_kb_per_op /. echo_gc_kb_per_op else 0.
  in
  let gc_reduction_churn =
    if c.gc_alloc_mb > 0. then baseline_churn_gc_mb /. c.gc_alloc_mb else 0.
  in
  write_json out
    Metrics.Json.(
      Obj
        [
          ("pr", Int 6);
          ("mode", Str (if quick then "quick" else "default"));
          ("samples", Obj [ (e.label, sample_json e); (c.label, sample_json c) ]);
          ( "baseline",
            Obj
              [
                ("commit", Str baseline_commit); ("harness", Str "this file, pre-change tree");
                ("echo_count", Int baseline_echo_count);
                ("echo_wall_s", fixed 4 baseline_echo_wall_s);
                ("echo_us_per_op", fixed 2 baseline_echo_us_per_op);
                ("echo_gc_mb", fixed 1 baseline_echo_gc_mb);
                ("churn_conns", Int baseline_churn_conns);
                ("churn_wall_s", fixed 4 baseline_churn_wall_s);
                ("churn_gc_mb", fixed 1 baseline_churn_gc_mb);
              ] );
          ("echo_us_per_op", fixed 2 echo_us_per_op);
          ("echo_gc_kb_per_op", fixed 2 echo_gc_kb_per_op);
          ("speedup_churn", fixed 2 churn_speedup);
          ("gc_reduction_echo", fixed 2 gc_reduction_echo);
          ("gc_reduction_churn", fixed 2 gc_reduction_churn);
        ]);
  Printf.printf "wrote %s (speedup_churn=%.2fx, gc_reduction_churn=%.2fx vs %s)\n%!" out
    churn_speedup gc_reduction_churn baseline_commit;
  out
