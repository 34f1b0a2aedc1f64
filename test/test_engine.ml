(* Unit and property tests for the discrete-event engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_clock_pp () =
  let s v = Format.asprintf "%a" Engine.Clock.pp v in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.50ms" (s (Engine.Clock.us 2_500));
  Alcotest.(check string) "s" "1.000s" (s (Engine.Clock.s 1))

let test_clock_units () =
  check_int "us" 1_000 (Engine.Clock.us 1);
  check_int "ms" 1_000_000 (Engine.Clock.ms 1);
  check_int "s" 1_000_000_000 (Engine.Clock.s 1)

(* [Eventq.add] returns a handle for [Eventq.cancel]; these tests keep
   none. *)
let add q ~time fn = ignore (Engine.Eventq.add q ~time fn : Engine.Eventq.handle)

let test_eventq_order () =
  let q = Engine.Eventq.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  add q ~time:30 (record "c");
  add q ~time:10 (record "a");
  add q ~time:20 (record "b");
  let rec drain () =
    if not (Engine.Eventq.is_empty q) then begin
      Engine.Eventq.pop q ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_eventq_ties_fifo () =
  let q = Engine.Eventq.create () in
  let order = ref [] in
  for i = 0 to 99 do
    add q ~time:5 (fun () -> order := i :: !order)
  done;
  let rec drain () =
    if not (Engine.Eventq.is_empty q) then begin
      Engine.Eventq.pop q ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "fifo ties" (List.init 100 Fun.id) (List.rev !order)

let test_eventq_heap_property =
  QCheck.Test.make ~name:"eventq pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Engine.Eventq.create () in
      List.iter (fun time -> add q ~time (fun () -> ())) times;
      let rec drain acc =
        if Engine.Eventq.is_empty q then List.rev acc
        else begin
          let time = Engine.Eventq.min_time q in
          let (_ : unit -> unit) = Engine.Eventq.pop q in
          drain (time :: acc)
        end
      in
      let popped = drain [] in
      popped = List.sort compare times)

let test_sim_schedule () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  Engine.Sim.schedule sim ~delay:100 (fun () -> fired := `B :: !fired);
  Engine.Sim.schedule sim ~delay:50 (fun () -> fired := `A :: !fired);
  Engine.Sim.run sim;
  check_int "clock at end" 100 (Engine.Sim.now sim);
  Alcotest.(check bool) "order" true (List.rev !fired = [ `A; `B ])

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  Engine.Sim.schedule sim ~delay:10 (fun () -> incr fired);
  Engine.Sim.schedule sim ~delay:1000 (fun () -> incr fired);
  Engine.Sim.run ~until:500 sim;
  check_int "only first fired" 1 !fired;
  check_int "clock clamped" 500 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  check_int "second fires on resume" 2 !fired

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  Engine.Sim.schedule sim ~delay:1 (fun () ->
      incr fired;
      Engine.Sim.stop sim);
  Engine.Sim.schedule sim ~delay:2 (fun () -> incr fired);
  Engine.Sim.run sim;
  check_int "stopped after first" 1 !fired

let test_fiber_sleep () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  Engine.Fiber.spawn sim (fun () ->
      log := ("start", Engine.Sim.now sim) :: !log;
      Engine.Fiber.sleep sim 250;
      log := ("awake", Engine.Sim.now sim) :: !log);
  Engine.Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "sleep advances time"
    [ ("start", 0); ("awake", 250) ]
    (List.rev !log)

let test_fiber_interleave () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let worker tag delay =
    Engine.Fiber.spawn sim (fun () ->
        Engine.Fiber.sleep sim delay;
        log := tag :: !log;
        Engine.Fiber.sleep sim delay;
        log := tag :: !log)
  in
  worker "slow" 100;
  worker "fast" 30;
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "interleaving" [ "fast"; "fast"; "slow"; "slow" ] (List.rev !log)

let test_fiber_exception () =
  let sim = Engine.Sim.create () in
  Engine.Fiber.spawn sim ~name:"boomer" (fun () -> failwith "boom");
  match Engine.Sim.run sim with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions fiber" true
        (String.length msg > 0 && String.sub msg 0 5 = "fiber")

let test_condvar_broadcast () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let woken = ref [] in
  for i = 1 to 3 do
    Engine.Fiber.spawn sim (fun () ->
        Engine.Condvar.wait cv;
        woken := i :: !woken)
  done;
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 500;
      Engine.Condvar.broadcast cv);
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "fifo wake order" [ 1; 2; 3 ] (List.rev !woken);
  check_int "time of wake" 500 (Engine.Sim.now sim)

let test_condvar_timeout () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let outcome = ref None in
  Engine.Fiber.spawn sim (fun () ->
      outcome := Some (Engine.Condvar.wait_timeout cv 100));
  Engine.Sim.run sim;
  Alcotest.(check bool) "timed out" true (!outcome = Some `Timeout);
  check_int "timeout time" 100 (Engine.Sim.now sim)

let test_condvar_signal_beats_timeout () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let outcome = ref None in
  Engine.Fiber.spawn sim (fun () ->
      outcome := Some (Engine.Condvar.wait_timeout cv 1_000));
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 10;
      Engine.Condvar.broadcast cv);
  Engine.Sim.run sim;
  Alcotest.(check bool) "signaled" true (!outcome = Some `Signaled)

let test_prng_deterministic () =
  let a = Engine.Prng.create 42L in
  let b = Engine.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Prng.int64 a) (Engine.Prng.int64 b)
  done

let test_prng_split_independent () =
  let a = Engine.Prng.create 42L in
  let c = Engine.Prng.split a in
  let first_c = Engine.Prng.int64 c in
  let first_a = Engine.Prng.int64 a in
  Alcotest.(check bool) "streams differ" true (first_a <> first_c)

let test_prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Engine.Prng.create seed in
      let v = Engine.Prng.int g bound in
      v >= 0 && v < bound)

let test_prng_float_unit =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.int64 (fun seed ->
      let g = Engine.Prng.create seed in
      let v = Engine.Prng.float g in
      v >= 0. && v < 1.)

let test_trace_ring () =
  let tr = Engine.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Engine.Trace.record tr ~now:(i * 10) ~category:(Engine.Trace.Custom "t") (string_of_int i)
  done;
  let evs = Engine.Trace.events tr in
  check_int "capacity bounds events" 4 (List.length evs);
  check_int "two dropped" 2 (Engine.Trace.dropped tr);
  Alcotest.(check (list string)) "oldest dropped first" [ "3"; "4"; "5"; "6" ]
    (List.map (fun (_, _, m) -> m) evs)

let test_trace_thunk_lazy () =
  let sim = Engine.Sim.create () in
  let forced = ref false in
  Engine.Sim.trace_event sim ~category:(Engine.Trace.Custom "x") (fun () ->
      forced := true;
      "never");
  check_bool "thunk not forced when tracing off" false !forced;
  let _ = Engine.Sim.enable_trace sim in
  Engine.Sim.trace_event sim ~category:(Engine.Trace.Custom "x") (fun () ->
      forced := true;
      "recorded");
  check_bool "thunk forced when tracing on" true !forced

let test_trace_digest () =
  let mk () =
    let tr = Engine.Trace.create () in
    Engine.Trace.record tr ~now:5 ~category:(Engine.Trace.Custom "net") "tx frame";
    Engine.Trace.record tr ~now:9 ~category:Engine.Trace.App "pop done";
    tr
  in
  Alcotest.(check string) "identical streams digest equally"
    (Engine.Trace.digest (mk ()))
    (Engine.Trace.digest (mk ()));
  let extended = mk () in
  Engine.Trace.record extended ~now:10 ~category:Engine.Trace.App "one more";
  check_bool "an extra event changes the digest" true
    (Engine.Trace.digest extended <> Engine.Trace.digest (mk ()));
  let reordered = Engine.Trace.create () in
  Engine.Trace.record reordered ~now:9 ~category:Engine.Trace.App "pop done";
  Engine.Trace.record reordered ~now:5 ~category:(Engine.Trace.Custom "net") "tx frame";
  check_bool "event order is part of the digest" true
    (Engine.Trace.digest reordered <> Engine.Trace.digest (mk ()))

let test_det_sorted_iteration () =
  let tbl = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace tbl k (k * 10)) [ 5; 1; 9; 3 ];
  Alcotest.(check (list int)) "keys sorted" [ 1; 3; 5; 9 ]
    (Engine.Det.hashtbl_sorted_keys ~compare:Int.compare tbl);
  let visited = ref [] in
  Engine.Det.hashtbl_iter_sorted ~compare:Int.compare tbl (fun k _ ->
      visited := k :: !visited);
  Alcotest.(check (list int)) "iter visits in key order" [ 9; 5; 3; 1 ] !visited;
  let sum =
    Engine.Det.hashtbl_fold_sorted ~compare:Int.compare tbl (fun _ v acc -> acc + v) 0
  in
  check_int "fold sees every binding" 180 sum;
  (* Mutation during iteration must not crash or revisit. *)
  let seen = ref [] in
  Engine.Det.hashtbl_iter_sorted ~compare:Int.compare tbl (fun k _ ->
      if k = 1 then Hashtbl.remove tbl 9;
      seen := k :: !seen);
  Alcotest.(check (list int)) "removed binding skipped" [ 5; 3; 1 ] !seen

let test_sim_teardown_hooks () =
  let sim = Engine.Sim.create () in
  let order = ref [] in
  Engine.Sim.at_teardown sim (fun () -> order := "first" :: !order);
  Engine.Sim.at_teardown sim (fun () -> order := "second" :: !order);
  Engine.Sim.teardown sim;
  Alcotest.(check (list string)) "hooks run in registration order" [ "second"; "first" ]
    !order;
  Engine.Sim.teardown sim;
  Alcotest.(check (list string)) "second teardown is a no-op" [ "second"; "first" ] !order

(* --- Eventq / Timerwheel property tests (PR 3) ---

   The determinism contract both structures share: entries come out in
   (time, insertion-sequence) order, no matter how adds, pops and
   cancels interleave. The wheel is additionally checked against a
   naive sorted-scan oracle — the exact algorithm the TCP stack used
   before the wheel replaced it. *)

let test_eventq_interleaved =
  (* None = pop, Some dt = add at (current virtual time + dt). Times are
     monotone like the simulator's: each pop advances "now". *)
  QCheck.Test.make ~name:"eventq interleaved add/pop in (time, seq) order" ~count:300
    QCheck.(list (option (int_bound 1_000)))
    (fun ops ->
      let q = Engine.Eventq.create () in
      let model = ref [] in
      (* (time, id), insertion order *)
      let now = ref 0 in
      let next_id = ref 0 in
      let popped = ref [] in
      let ok = ref true in
      let pop_one () =
        if Engine.Eventq.is_empty q then ok := !ok && !model = []
        else begin
          let time = Engine.Eventq.min_time q in
          let fn = Engine.Eventq.pop q in
          fn ();
          now := max !now time;
          let best =
            List.fold_left
              (fun acc (t, i) ->
                match acc with
                | Some (bt, bi) when bt < t || (bt = t && bi < i) -> acc
                | _ -> Some (t, i))
              None !model
          in
          match (best, !popped) with
          | Some (bt, bi), id :: _ ->
              ok := !ok && time = bt && id = bi;
              model := List.filter (fun (t, i) -> (t, i) <> (bt, bi)) !model
          | _, _ -> ok := false
        end
      in
      List.iter
        (function
          | Some dt ->
              let id = !next_id in
              incr next_id;
              add q ~time:(!now + dt) (fun () -> popped := id :: !popped);
              model := (!now + dt, id) :: !model
          | None -> pop_one ())
        ops;
      while !model <> [] && !ok do
        pop_one ()
      done;
      !ok)

(* Shared driver: applies (kind, arg) ops to a wheel and to a naive
   sorted-scan oracle; returns the firing log [(now, id); ...] and
   whether every intermediate check held. The oracle snapshots the due
   set before each [expire], so entries a callback arms must not fire
   in that same call. *)
let wheel_vs_oracle ops =
  let w = Engine.Timerwheel.create () in
  let handles = ref [] in
  (* (id, handle), newest first — fired/cancelled ones included *)
  let oracle = ref [] in
  (* (deadline, id, alive ref) *)
  let rearms = Hashtbl.create 8 in
  (* id -> delay its callback re-arms with *)
  let now = ref 0 in
  let next_id = ref 0 in
  let log = ref [] in
  let ok = ref true in
  let arm ?rearm d =
    let id = !next_id in
    incr next_id;
    handles := (id, Engine.Timerwheel.add w ~deadline:d id) :: !handles;
    (* The wheel clamps past deadlines to the time it has expired up to. *)
    oracle := (max d !now, id, ref true) :: !oracle;
    Option.iter (Hashtbl.replace rearms id) rearm
  in
  let oracle_min () =
    List.fold_left
      (fun acc (d, _, alive) ->
        if !alive then match acc with Some m when m <= d -> acc | _ -> Some d else acc)
      None !oracle
  in
  let advance dt =
    now := !now + dt;
    let due = List.filter (fun (d, _, alive) -> !alive && d <= !now) !oracle in
    let due = List.sort (fun (d1, i1, _) (d2, i2, _) -> compare (d1, i1) (d2, i2)) due in
    let fired_o = List.map (fun (_, i, alive) -> alive := false; i) due in
    let fired_w = ref [] in
    Engine.Timerwheel.expire w ~now:!now (fun id ->
        fired_w := id :: !fired_w;
        (* The RTO pattern: re-arm from inside the callback, possibly
           at a deadline that is already due. *)
        Option.iter (fun delay -> arm (!now + delay)) (Hashtbl.find_opt rearms id));
    ok := !ok && List.rev !fired_w = fired_o;
    List.iter (fun i -> log := (!now, i) :: !log) fired_o
  in
  List.iter
    (fun (kind, arg) ->
      (match kind with
      | 0 -> arm (!now + arg)
      | 1 -> (
          match !handles with
          | [] -> ()
          | hs ->
              let id, h = List.nth hs (arg mod List.length hs) in
              Engine.Timerwheel.cancel w h;
              List.iter (fun (_, i, alive) -> if i = id then alive := false) !oracle)
      | 2 -> advance arg
      | 3 -> arm (!now - arg) (* already past: exercises the clamp *)
      | 4 -> arm (!now + ((max_int / 4) lsr (arg mod 62))) (* far, up to max_int / 4 *)
      | _ -> arm ~rearm:((arg mod 7) - 3) (!now + arg));
      (* The peek must be the exact live minimum after every op. *)
      ok := !ok && Engine.Timerwheel.next_deadline w = oracle_min ())
    ops;
  (* Drain everything left: past the farthest deadline, then once more
     for the entries the final callbacks re-armed. *)
  advance (max_int / 2);
  advance 3;
  ok := !ok && Engine.Timerwheel.size w = 0 && Engine.Timerwheel.next_deadline w = None;
  (List.rev !log, !ok)

let wheel_ops_gen =
  (* kind: 0 = add (arg: delay), 1 = cancel (arg: which handle),
     2 = advance+expire (arg: dt), 3 = add in the past (arg: how far),
     4 = add far ahead (arg picks a power-of-two scale of max_int / 4),
     5 = add an entry whose callback re-arms at now + (arg mod 7) - 3. *)
  QCheck.(list (pair (int_bound 5) (int_bound 200_000)))

let test_wheel_matches_oracle =
  QCheck.Test.make ~name:"timerwheel expiry matches sorted-scan oracle" ~count:300
    wheel_ops_gen
    (fun ops ->
      let _, ok = wheel_vs_oracle ops in
      ok)

let test_wheel_digest_stable =
  (* Same schedule, two independent runs: the firing log — folded into a
     Trace — must digest identically (the property `demi --selfcheck`
     leans on once the TCP stack runs its timers off the wheel). *)
  QCheck.Test.make ~name:"timerwheel same-seed trace digests equal" ~count:100
    wheel_ops_gen
    (fun ops ->
      let digest_of () =
        let tr = Engine.Trace.create () in
        let log, ok = wheel_vs_oracle ops in
        List.iter
          (fun (at, id) ->
            Engine.Trace.record tr ~now:at ~category:(Engine.Trace.Custom "wheel") (string_of_int id))
          log;
        (Engine.Trace.digest tr, ok)
      in
      let d1, ok1 = digest_of () in
      let d2, ok2 = digest_of () in
      ok1 && ok2 && String.equal d1 d2)

let test_wheel_cancel_no_fire () =
  let w = Engine.Timerwheel.create () in
  let h1 = Engine.Timerwheel.add w ~deadline:100 "a" in
  let h2 = Engine.Timerwheel.add w ~deadline:100 "b" in
  let _h3 = Engine.Timerwheel.add w ~deadline:200 "c" in
  Engine.Timerwheel.cancel w h1;
  Engine.Timerwheel.cancel w h1;
  (* idempotent *)
  check_int "two live" 2 (Engine.Timerwheel.size w);
  check_bool "h2 live" true (Engine.Timerwheel.handle_live h2);
  check_bool "h1 dead" false (Engine.Timerwheel.handle_live h1);
  (match Engine.Timerwheel.next_deadline w with
  | Some d -> check_int "min survives cancel of tied entry" 100 d
  | None -> Alcotest.fail "expected a deadline");
  let fired = ref [] in
  Engine.Timerwheel.expire w ~now:500 (fun p -> fired := p :: !fired);
  Alcotest.(check (list string)) "only live entries fire, in order" [ "b"; "c" ]
    (List.rev !fired);
  check_int "empty after drain" 0 (Engine.Timerwheel.size w)

let test_wheel_readd_during_expire () =
  (* A callback re-arming itself (the RTO backoff pattern) must not fire
     again within the same expire call, even if the new deadline is
     already due. *)
  let w = Engine.Timerwheel.create () in
  let fires = ref 0 in
  let rec payload () =
    incr fires;
    if !fires = 1 then ignore (Engine.Timerwheel.add w ~deadline:150 payload)
  in
  ignore (Engine.Timerwheel.add w ~deadline:100 payload);
  Engine.Timerwheel.expire w ~now:200 (fun f -> f ());
  check_int "re-armed entry deferred" 1 !fires;
  Engine.Timerwheel.expire w ~now:200 (fun f -> f ());
  check_int "fires on the next expire" 2 !fires

let test_wheel_cancel_during_expire () =
  (* Closing a connection from a timer callback disarms its other
     timer: a due entry cancelled by an earlier callback in the same
     [expire] must not fire. *)
  let w = Engine.Timerwheel.create () in
  let fired = ref [] in
  ignore (Engine.Timerwheel.add w ~deadline:100 "first");
  let later = Engine.Timerwheel.add w ~deadline:150 "later" in
  ignore (Engine.Timerwheel.add w ~deadline:200 "last");
  Engine.Timerwheel.expire w ~now:300 (fun p ->
      fired := p :: !fired;
      if p = "first" then Engine.Timerwheel.cancel w later);
  Alcotest.(check (list string)) "cancelled entry skipped" [ "first"; "last" ] (List.rev !fired);
  check_int "empty after drain" 0 (Engine.Timerwheel.size w)

let minor_words () = int_of_float (Gc.minor_words ())

(* The per-poll timer cycle of a stack with [n] in-flight RTOs: an ack
   cancels the earliest RTO and re-arms it behind the rest, the poller
   peeks the next deadline, then runs an [expire] with nothing due.
   Returns (cycle words per op, total words spent in the peek). *)
let wheel_cycle_words n =
  let gap = 7 and base = 1_000_000 and cycles = 20_000 in
  let w = Engine.Timerwheel.create () in
  let handles = Array.init n (fun i -> Engine.Timerwheel.add w ~deadline:(base + (i * gap)) i) in
  let calib =
    let a = minor_words () in
    minor_words () - a
  in
  let peek_words = ref 0 in
  let w0 = minor_words () in
  for k = 0 to cycles - 1 do
    let i = k mod n in
    Engine.Timerwheel.cancel w handles.(i);
    handles.(i) <- Engine.Timerwheel.add w ~deadline:(base + ((n + k) * gap)) i;
    let p0 = minor_words () in
    ignore (Sys.opaque_identity (Engine.Timerwheel.next_deadline_ns w));
    peek_words := !peek_words + (minor_words () - p0 - calib);
    Engine.Timerwheel.expire w ~now:k ignore
  done;
  let words = minor_words () - w0 in
  check_int "nothing fired" 0 (Engine.Timerwheel.activity w);
  check_int "all live" n (Engine.Timerwheel.size w);
  (float_of_int words /. float_of_int cycles, !peek_words)

let test_wheel_scale_invariance () =
  let per_op_1k, peek_1k = wheel_cycle_words 1_000 in
  let per_op_8k, peek_8k = wheel_cycle_words 8_000 in
  check_int "peek allocates nothing at 1k" 0 peek_1k;
  check_int "peek allocates nothing at 8k" 0 peek_8k;
  if per_op_8k > 1.25 *. per_op_1k then
    Alcotest.failf "cycle words/op grew with N: %.1f at 1k, %.1f at 8k" per_op_1k per_op_8k

(* A cancelled or fired entry leaves no reference behind in the heap
   array, so its payload can be collected while the wheel lives on. *)
let test_wheel_releases_payloads () =
  let w = Engine.Timerwheel.create () in
  let collected = ref 0 in
  let[@inline never] arm deadline =
    let payload = ref deadline in
    Gc.finalise (fun _ -> incr collected) payload;
    Engine.Timerwheel.add w ~deadline payload
  in
  ignore (arm 50);
  ignore (arm 200);
  let h = arm 100 in
  Engine.Timerwheel.cancel w h;
  Engine.Timerwheel.expire w ~now:150 ignore;
  Gc.full_major ();
  check_int "cancelled and fired payloads collected" 2 !collected;
  check_int "one entry still armed" 1 (Engine.Timerwheel.size w)

(* --- Fast-forwarded sleeps ---

   [Fiber.sleep] advances the clock in place when its wake-up would be
   the next event popped. The property below runs random multi-fiber
   programs twice, once with [Fiber.sleep] and once with the suspending
   sleep built from the public API, and demands the same run. *)

type op =
  | Sleep of int
  | Wait of int
  | Wait_timeout of int * int
  | Broadcast of int
  | Schedule of int * int option (* callback delay, condvar it broadcasts *)
  | Stop

let show_op = function
  | Sleep d -> Printf.sprintf "sleep %d" d
  | Wait c -> Printf.sprintf "wait cv%d" c
  | Wait_timeout (c, d) -> Printf.sprintf "wait cv%d timeout %d" c d
  | Broadcast c -> Printf.sprintf "broadcast cv%d" c
  | Schedule (d, None) -> Printf.sprintf "schedule %d" d
  | Schedule (d, Some c) -> Printf.sprintf "schedule %d broadcast cv%d" d c
  | Stop -> "stop"

(* (fibers as (start delay, ops), sampler interval, run ~until slice) *)
let arb_program =
  let open QCheck.Gen in
  let cv = int_bound 1 in
  let op =
    frequency
      [
        (6, map (fun d -> Sleep d) (oneofl [ 0; 0; 1; 2; 3; 5; 8; 13 ]));
        (1, map (fun c -> Wait c) cv);
        (1, map2 (fun c d -> Wait_timeout (c, d)) cv (int_bound 20));
        (2, map (fun c -> Broadcast c) cv);
        (2, map2 (fun d c -> Schedule (d, c)) (int_bound 20) (opt cv));
        (1, return Stop);
      ]
  in
  let fiber = pair (oneofl [ 0; 0; 1; 3 ]) (list_size (int_bound 12) op) in
  let print (fibers, interval, slice) =
    Printf.sprintf "sampler %d, slices %d\n%s" interval slice
      (String.concat "\n"
         (List.mapi
            (fun i (start, ops) ->
              Printf.sprintf "fiber %d @%d: %s" i start (String.concat "; " (List.map show_op ops)))
            fibers))
  in
  QCheck.make ~print (triple (list_size (int_range 1 4) fiber) (int_range 1 15) (int_range 1 30))

let suspending_sleep sim delay =
  Engine.Fiber.suspend (fun resume -> Engine.Sim.schedule sim ~delay (fun () -> resume ()))

(* Returns the (time, tag) log, the sampler rows (boundary, log length
   then), (now, events) after every [run], and the final (events, now). *)
let run_program ~sleep (fibers, interval, slice) =
  let sim = Engine.Sim.create () in
  let cvs = Array.init 2 (fun _ -> Engine.Condvar.create sim) in
  let log = ref [] in
  let note tag = log := (Engine.Sim.now sim, tag) :: !log in
  let samples = ref [] in
  Engine.Sim.set_sampler sim ~interval (fun b -> samples := (b, List.length !log) :: !samples);
  List.iteri
    (fun i (start, ops) ->
      Engine.Sim.schedule sim ~delay:start (fun () ->
          Engine.Fiber.spawn sim (fun () ->
              List.iteri
                (fun j op ->
                  let tag = Printf.sprintf "%d.%d" i j in
                  (match op with
                  | Sleep d -> sleep sim d
                  | Wait c -> Engine.Condvar.wait cvs.(c)
                  | Wait_timeout (c, d) -> (
                      match Engine.Condvar.wait_timeout cvs.(c) d with
                      | `Signaled -> note (tag ^ " signaled")
                      | `Timeout -> note (tag ^ " timeout"))
                  | Broadcast c -> Engine.Condvar.broadcast cvs.(c)
                  | Schedule (d, c) ->
                      Engine.Sim.schedule sim ~delay:d (fun () ->
                          note (tag ^ " callback");
                          Option.iter (fun c -> Engine.Condvar.broadcast cvs.(c)) c)
                  | Stop -> Engine.Sim.stop sim);
                  note tag)
                ops)))
    fibers;
  let runs = ref [] in
  let run ?until () =
    Engine.Sim.run ?until sim;
    runs := (Engine.Sim.now sim, Engine.Sim.events_processed sim) :: !runs
  in
  for k = 1 to 8 do
    run ~until:(k * slice) ()
  done;
  (* Each [Stop] ends at most one run; the program has fewer than 64. *)
  for _ = 1 to 64 do
    run ()
  done;
  ( List.rev !log,
    List.rev !samples,
    List.rev !runs,
    (Engine.Sim.events_processed sim, Engine.Sim.now sim) )

let test_fast_forward_equivalent =
  QCheck.Test.make ~name:"fast-forwarded sleeps give the same run as suspending ones"
    ~count:500 arb_program (fun prog ->
      run_program ~sleep:Engine.Fiber.sleep prog = run_program ~sleep:suspending_sleep prog)

(* A lone fiber's sleeps are never contended, so each one must take the
   in-place path: no effect, no closure, no event entry. *)
let test_uncontended_sleep_allocates_nothing () =
  let sim = Engine.Sim.create () in
  let words = ref (-1) in
  Engine.Fiber.spawn sim (fun () ->
      let w0 = minor_words () in
      for _ = 1 to 1000 do
        Engine.Fiber.sleep sim 7
      done;
      words := minor_words () - w0);
  Engine.Sim.run sim;
  check_int "minor words across 1000 sleeps" 0 !words;
  check_int "clock" 7_000 (Engine.Sim.now sim);
  check_int "one event per sleep, plus the spawn" 1_001 (Engine.Sim.events_processed sim)

(* --- Cancellable events ---

   [Eventq] against a sorted-list oracle: random adds (with many equal
   times), cancels of queued, popped and already-cancelled entries, and
   pops. Entries must pop in (time, seq) order, a cancelled callback
   must never run, and [size] must be exact after every step. *)

type qop = Q_add of int | Q_cancel of int | Q_pop

let arb_qops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun t -> Q_add t) (int_bound 30));
        (2, map (fun i -> Q_cancel i) (int_bound 1_000));
        (3, return Q_pop);
      ]
  in
  let show = function
    | Q_add t -> Printf.sprintf "add %d" t
    | Q_cancel i -> Printf.sprintf "cancel #%d" i
    | Q_pop -> "pop"
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show ops))
    (list_size (int_range 0 120) op)

type qstate = Queued | Popped | Cancelled

let eventq_matches_oracle ops =
  let q = Engine.Eventq.create () in
  (* (time, id, state), id = insertion order; newest first *)
  let oracle = ref [] in
  let handles = ref [||] in
  let ran = ref (-1) in
  let ok = ref true in
  let expect b = ok := !ok && b in
  let queued () = List.filter (fun (_, _, st) -> !st = Queued) !oracle in
  let pop () =
    match queued () with
    | [] -> expect (Engine.Eventq.is_empty q)
    | live ->
        let time, id, st =
          List.fold_left
            (fun ((bt, bi, _) as best) ((t, i, _) as e) ->
              if t < bt || (t = bt && i < bi) then e else best)
            (List.hd live) live
        in
        expect (Engine.Eventq.min_time q = time);
        ran := -1;
        Engine.Eventq.pop q ();
        expect (!ran = id);
        st := Popped
  in
  List.iter
    (fun op ->
      (match op with
      | Q_add time ->
          let id = Array.length !handles in
          let st = ref Queued in
          let h =
            Engine.Eventq.add q ~time (fun () ->
                expect (!st = Queued);
                ran := id)
          in
          handles := Array.append !handles [| h |];
          oracle := (time, id, st) :: !oracle
      | Q_cancel i when Array.length !handles > 0 ->
          let id = i mod Array.length !handles in
          let h = !handles.(id) in
          let _, _, st = List.find (fun (_, j, _) -> j = id) !oracle in
          expect (Engine.Eventq.queued h = (!st = Queued));
          Engine.Eventq.cancel q h;
          if !st = Queued then st := Cancelled;
          expect (not (Engine.Eventq.queued h))
      | Q_cancel _ -> ()
      | Q_pop -> pop ());
      expect (Engine.Eventq.size q = List.length (queued ())))
    ops;
  while queued () <> [] && !ok do
    pop ()
  done;
  !ok && Engine.Eventq.is_empty q

let test_eventq_oracle =
  QCheck.Test.make ~name:"eventq add/cancel/pop matches a sorted-list oracle" ~count:500
    arb_qops eventq_matches_oracle

(* [Condvar] and cancellable timers against the lazy-flag design they
   replace, kept here as the reference: every waiter closure stays in
   its queues until broadcast, and a fired waiter's other events and a
   finished wait's timer still run, as no-ops. Both run the same random
   multi-fiber programs; the runs must agree on every (time, fiber,
   outcome) record and on the clock while any live event remains, and
   differ in [events_processed] by exactly the reference's no-op
   fires. *)

module type WAIT = sig
  type cv
  type timer

  val create : Engine.Sim.t -> cv
  val wait : cv -> unit
  val wait_timeout : cv -> int -> [ `Signaled | `Timeout ]
  val wait_many : Engine.Sim.t -> cv list -> timeout:int option -> [ `Signaled | `Timeout ]
  val broadcast : cv -> unit
  val arm : Engine.Sim.t -> delay:int -> (unit -> unit) -> timer
  val disarm : Engine.Sim.t -> timer -> unit
  val noops : int ref
end

module Cancelling : WAIT = struct
  include Engine.Condvar

  type cv = t
  type timer = Engine.Sim.timer

  let arm sim ~delay fn = Engine.Sim.timer sim ~delay fn
  let disarm = Engine.Sim.cancel
  let noops = ref 0
end

module Lazy_flags : WAIT = struct
  type cv = { sim : Engine.Sim.t; mutable queue : (unit -> unit) list }
  type timer = bool ref

  let noops = ref 0
  let create sim = { sim; queue = [] }

  let wait_many sim cvs ~timeout =
    Engine.Fiber.suspend (fun resume ->
        let fired = ref false in
        let fire outcome =
          if !fired then incr noops
          else begin
            fired := true;
            resume outcome
          end
        in
        List.iter (fun cv -> cv.queue <- (fun () -> fire `Signaled) :: cv.queue) cvs;
        Option.iter
          (fun span -> Engine.Sim.schedule sim ~delay:(max 0 span) (fun () -> fire `Timeout))
          timeout)

  let wait cv = ignore (wait_many cv.sim [ cv ] ~timeout:None)
  let wait_timeout cv span = wait_many cv.sim [ cv ] ~timeout:(Some span)

  let broadcast cv =
    let waiters = List.rev cv.queue in
    cv.queue <- [];
    List.iter (fun f -> Engine.Sim.schedule cv.sim ~delay:0 f) waiters

  let arm sim ~delay fn =
    let dead = ref false in
    Engine.Sim.schedule sim ~delay (fun () -> if !dead then incr noops else fn ());
    dead

  let disarm _ dead = dead := true
end

type wop =
  | W_sleep of int
  | W_wait of int
  | W_wait_timeout of int * int
  | W_wait_many of int list * int option
  | W_broadcast of int
  | W_guarded of int * int (* timer broadcasting cv after d, wait on cv, cancel the timer *)
  | W_schedule of int * int (* callback after d broadcasting cv *)

let show_wop = function
  | W_sleep d -> Printf.sprintf "sleep %d" d
  | W_wait c -> Printf.sprintf "wait cv%d" c
  | W_wait_timeout (c, d) -> Printf.sprintf "wait cv%d timeout %d" c d
  | W_wait_many (cs, d) ->
      Printf.sprintf "wait_many [%s]%s"
        (String.concat "," (List.map string_of_int cs))
        (match d with Some d -> Printf.sprintf " timeout %d" d | None -> "")
  | W_broadcast c -> Printf.sprintf "broadcast cv%d" c
  | W_guarded (c, d) -> Printf.sprintf "guarded wait cv%d timer %d" c d
  | W_schedule (d, c) -> Printf.sprintf "schedule %d broadcast cv%d" d c

(* (fibers as (start delay, ops), run ~until slice) *)
let arb_wait_program =
  let open QCheck.Gen in
  let cv = int_bound 2 in
  let span = int_bound 20 in
  let op =
    frequency
      [
        (3, map (fun d -> W_sleep d) (oneofl [ 0; 1; 2; 3; 5; 8 ]));
        (1, map (fun c -> W_wait c) cv);
        (2, map2 (fun c d -> W_wait_timeout (c, d)) cv span);
        (2, map2 (fun cs d -> W_wait_many (cs, d)) (list_size (int_range 1 3) cv) (opt span));
        (3, map (fun c -> W_broadcast c) cv);
        (2, map2 (fun c d -> W_guarded (c, d)) cv span);
        (1, map2 (fun d c -> W_schedule (d, c)) span cv);
      ]
  in
  let fiber = pair (oneofl [ 0; 0; 1; 3 ]) (list_size (int_bound 12) op) in
  let print (fibers, slice) =
    Printf.sprintf "slices %d\n%s" slice
      (String.concat "\n"
         (List.mapi
            (fun i (start, ops) ->
              Printf.sprintf "fiber %d @%d: %s" i start
                (String.concat "; " (List.map show_wop ops)))
            fibers))
  in
  QCheck.make ~print (pair (list_size (int_range 1 5) fiber) (int_range 1 15))

(* Returns the (time, tag) log, after every [run] the (now, events, log
   length, no-op fires so far, pending), and the final (events, now). *)
module Run_waits (W : WAIT) = struct
  let run (fibers, slice) =
    W.noops := 0;
    let sim = Engine.Sim.create () in
    let cvs = Array.init 3 (fun _ -> W.create sim) in
    let log = ref [] in
    let note tag = log := (Engine.Sim.now sim, tag) :: !log in
    let outcome tag = function
      | `Signaled -> note (tag ^ " signaled")
      | `Timeout -> note (tag ^ " timeout")
    in
    List.iteri
      (fun i (start, ops) ->
        Engine.Sim.schedule sim ~delay:start (fun () ->
            Engine.Fiber.spawn sim (fun () ->
                note (Printf.sprintf "%d start" i);
                List.iteri
                  (fun j op ->
                    let tag = Printf.sprintf "%d.%d" i j in
                    (match op with
                    | W_sleep d -> Engine.Fiber.sleep sim d
                    | W_wait c -> W.wait cvs.(c)
                    | W_wait_timeout (c, d) -> outcome tag (W.wait_timeout cvs.(c) d)
                    | W_wait_many (cs, d) ->
                        outcome tag
                          (W.wait_many sim (List.map (fun c -> cvs.(c)) cs) ~timeout:d)
                    | W_broadcast c -> W.broadcast cvs.(c)
                    | W_guarded (c, d) ->
                        let timer =
                          W.arm sim ~delay:d (fun () ->
                              note (tag ^ " timer");
                              W.broadcast cvs.(c))
                        in
                        W.wait cvs.(c);
                        W.disarm sim timer
                    | W_schedule (d, c) ->
                        Engine.Sim.schedule sim ~delay:d (fun () ->
                            note (tag ^ " callback");
                            W.broadcast cvs.(c)));
                    note tag)
                  ops)))
      fibers;
    let runs = ref [] in
    let run ?until () =
      Engine.Sim.run ?until sim;
      runs :=
        ( Engine.Sim.now sim,
          Engine.Sim.events_processed sim,
          List.length !log,
          !W.noops,
          Engine.Sim.pending sim )
        :: !runs
    in
    for k = 1 to 8 do
      run ~until:(k * slice) ()
    done;
    run ();
    (List.rev !log, List.rev !runs, (Engine.Sim.events_processed sim, Engine.Sim.now sim))
end

module Run_cancelling = Run_waits (Cancelling)
module Run_lazy = Run_waits (Lazy_flags)

let test_cancel_equals_noops =
  QCheck.Test.make ~name:"cancelled events give the same run as no-op events" ~count:500
    arb_wait_program (fun prog ->
      let log, runs, (events, now) = Run_cancelling.run prog in
      let log_ref, runs_ref, (events_ref, _) = Run_lazy.run prog in
      let noops = match List.rev runs_ref with (_, _, _, n, _) :: _ -> n | [] -> 0 in
      log = log_ref
      && events_ref - events = noops
      (* Every event that stays is live and logs, so the run ends at
         the last live event's time. *)
      && now = (match List.rev log with (t, _) :: _ -> t | [] -> 0)
      && List.for_all2
           (fun (now, ev, len, _, pending) (now_ref, ev_ref, len_ref, noops_ref, _) ->
             len = len_ref
             && ev_ref - ev = noops_ref
             && if pending > 0 then now = now_ref else now <= now_ref)
           runs runs_ref)

(* The leak the lazy design had: a [wait_many] waiter woken through cv
   [a] stayed queued on cv [b], which is never broadcast, holding its
   closure (and through it the fiber) for good. *)
let test_condvar_parked_only () =
  let parks n =
    let sim = Engine.Sim.create () in
    let a = Engine.Condvar.create sim and b = Engine.Condvar.create sim in
    Engine.Fiber.spawn sim (fun () ->
        for _ = 1 to n do
          ignore (Engine.Condvar.wait_many sim [ a; b ] ~timeout:(Some 1_000_000))
        done);
    Engine.Fiber.spawn sim (fun () ->
        for _ = 1 to n do
          Engine.Fiber.sleep sim 1;
          Engine.Condvar.broadcast a
        done);
    Engine.Sim.run sim;
    (Engine.Condvar.waiters a, Engine.Condvar.waiters b, Engine.Sim.pending sim,
     Obj.reachable_words (Obj.repr b))
  in
  let a1, b1, p1, w1 = parks 1_000 and a10, b10, p10, w10 = parks 10_000 in
  check_int "cv a waiters, 1k parks" 0 a1;
  check_int "cv b waiters, 1k parks" 0 b1;
  check_int "cv a waiters, 10k parks" 0 a10;
  check_int "cv b waiters, 10k parks" 0 b10;
  check_int "timeouts cancelled, 1k parks" 0 p1;
  check_int "timeouts cancelled, 10k parks" 0 p10;
  check_int "words reachable from cv b, 10k vs 1k parks" w1 w10

let suite =
  [
    Alcotest.test_case "clock pretty-printing" `Quick test_clock_pp;
    Alcotest.test_case "clock unit conversions" `Quick test_clock_units;
    Alcotest.test_case "eventq time order" `Quick test_eventq_order;
    Alcotest.test_case "eventq fifo on ties" `Quick test_eventq_ties_fifo;
    QCheck_alcotest.to_alcotest test_eventq_heap_property;
    Alcotest.test_case "sim schedule and run" `Quick test_sim_schedule;
    Alcotest.test_case "sim run ~until" `Quick test_sim_until;
    Alcotest.test_case "sim stop" `Quick test_sim_stop;
    Alcotest.test_case "fiber sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber interleaving" `Quick test_fiber_interleave;
    Alcotest.test_case "fiber exception propagation" `Quick test_fiber_exception;
    Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
    Alcotest.test_case "condvar timeout" `Quick test_condvar_timeout;
    Alcotest.test_case "condvar signal beats timeout" `Quick test_condvar_signal_beats_timeout;
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "trace ring buffer" `Quick test_trace_ring;
    Alcotest.test_case "trace digest stability" `Quick test_trace_digest;
    Alcotest.test_case "det sorted hashtbl iteration" `Quick test_det_sorted_iteration;
    Alcotest.test_case "sim teardown hooks" `Quick test_sim_teardown_hooks;
    Alcotest.test_case "trace thunks are lazy" `Quick test_trace_thunk_lazy;
    QCheck_alcotest.to_alcotest test_prng_bounds;
    QCheck_alcotest.to_alcotest test_prng_float_unit;
    QCheck_alcotest.to_alcotest test_eventq_interleaved;
    QCheck_alcotest.to_alcotest test_wheel_matches_oracle;
    QCheck_alcotest.to_alcotest test_wheel_digest_stable;
    Alcotest.test_case "timerwheel cancel is exact" `Quick test_wheel_cancel_no_fire;
    Alcotest.test_case "timerwheel re-add during expire" `Quick test_wheel_readd_during_expire;
    Alcotest.test_case "timerwheel cancel during expire" `Quick test_wheel_cancel_during_expire;
    Alcotest.test_case "timerwheel steady cycle is scale-invariant" `Quick
      test_wheel_scale_invariance;
    Alcotest.test_case "timerwheel releases removed payloads" `Quick test_wheel_releases_payloads;
    QCheck_alcotest.to_alcotest test_fast_forward_equivalent;
    Alcotest.test_case "uncontended sleeps allocate nothing" `Quick
      test_uncontended_sleep_allocates_nothing;
    QCheck_alcotest.to_alcotest test_eventq_oracle;
    QCheck_alcotest.to_alcotest test_cancel_equals_noops;
    Alcotest.test_case "condvar holds parked fibers only" `Quick test_condvar_parked_only;
  ]
