(* The host-cost ledger: where the simulator's own CPU time and minor
   heap words go, section by section.

   A flat state machine, not a stack: exactly one section is current at
   any instant, and every switch charges the interval since the last
   switch (monotonic ns, and the [Gc.minor_words] delta) to the section
   that was current. The sections therefore partition the armed window
   exactly, and [stop] checks that they sum to the window's totals.

   Flat rather than nested because PDPIX apps are coroutines: an app
   parked in [wait] resumes inside another app's call, so per-call
   enter/leave pairs do not nest. Wrappers instead switch to their
   section on entry and back to a fixed owner section on return.

   The ledger itself allocates nothing: counters are ints in preallocated
   arrays, the clock is an [@untagged] [@@noalloc] C read, and
   [Gc.minor_words] is read through its unboxed external and converted
   straight to an int (the [Memory.Gcbudget] technique). [start]
   verifies that claim before each armed window. *)

external mono_ns : unit -> (int[@untagged]) = "demibench_mono_ns_byte" "demibench_mono_ns"
[@@noalloc]

external cpu_ns : unit -> (int[@untagged]) = "demibench_cpu_ns_byte" "demibench_cpu_ns"
[@@noalloc]

let names =
  [|
    "driver.other";
    "tcp.input";
    "tcp.flush_acks";
    "tcp.on_timer";
    "tcp.next_timer_ns";
    "tcp.send";
    "tcp.recv";
    "tcp.conn_lifecycle";
    "heap.copy";
    "heap.free";
    "framing.encode";
    "framing.decode";
    "app.txnstore";
    "loadgen.next";
    "pdpix.push";
    "pdpix.pop";
    "pdpix.alloc";
    "pdpix.free";
    "pdpix.wait";
    "pdpix.control";
    "app.client";
    "app.dkv";
    "bench.check";
  |]

let driver_other = 0
let tcp_input = 1
let tcp_flush_acks = 2
let tcp_on_timer = 3
let tcp_next_timer_ns = 4
let tcp_send = 5
let tcp_recv = 6
let tcp_conn_lifecycle = 7
let heap_copy = 8
let heap_free = 9
let framing_encode = 10
let framing_decode = 11
let app_txnstore = 12
let loadgen_next = 13
let pdpix_push = 14
let pdpix_pop = 15
let pdpix_alloc = 16
let pdpix_free = 17
let pdpix_wait = 18
let pdpix_control = 19
let app_client = 20
let app_dkv = 21
let bench_check = 22
let count = Array.length names
let ns = Array.make count 0
let words = Array.make count 0
let calls = Array.make count 0
let armed = ref false
let cur = ref 0
let t_last = ref 0
let w_last = ref 0
let t_start = ref 0
let w_start = ref 0
let minor () = int_of_float (Gc.minor_words ())

let switch s =
  let t = mono_ns () in
  let w = minor () in
  let c = !cur in
  Array.unsafe_set ns c (Array.unsafe_get ns c + t - !t_last);
  Array.unsafe_set words c (Array.unsafe_get words c + w - !w_last);
  t_last := t;
  w_last := w;
  cur := s

(* Enter section [s]; returns the section to restore. Disarmed, one
   branch. *)
let enter s =
  if !armed then begin
    let prev = !cur in
    switch s;
    Array.unsafe_set calls s (Array.unsafe_get calls s + 1);
    prev
  end
  else 0

let leave prev = if !armed then switch prev

(* Timed calls into a layer. [f] is always a toplevel function, so these
   allocate nothing beyond what [f] does. *)
let timed1 s f a =
  let p = enter s in
  match f a with
  | v ->
      leave p;
      v
  | exception e ->
      leave p;
      raise e

let timed2 s f a b =
  let p = enter s in
  match f a b with
  | v ->
      leave p;
      v
  | exception e ->
      leave p;
      raise e

let reset () =
  Array.fill ns 0 count 0;
  Array.fill words 0 count 0;
  Array.fill calls 0 count 0

(* Arm with [owner] current. Fails if a switch allocates. *)
let start owner =
  reset ();
  cur := owner;
  let w0 = minor () in
  for _ = 1 to 1000 do
    switch owner
  done;
  let w1 = minor () in
  if w1 <> w0 then failwith (Printf.sprintf "ledger: a switch allocated %d words" (w1 - w0));
  reset ();
  t_last := mono_ns ();
  w_last := minor ();
  t_start := !t_last;
  w_start := !w_last;
  armed := true

(* Disarm; returns the window's (ns, words) and fails unless the
   sections sum to them exactly. *)
let stop () =
  switch !cur;
  armed := false;
  let total_ns = !t_last - !t_start and total_words = !w_last - !w_start in
  let sum_ns = Array.fold_left ( + ) 0 ns and sum_words = Array.fold_left ( + ) 0 words in
  if sum_ns <> total_ns || sum_words <> total_words then
    failwith
      (Printf.sprintf "ledger: sections sum to %d ns / %d words, window was %d ns / %d words"
         sum_ns sum_words total_ns total_words);
  (total_ns, total_words)

(* Phase marks. Set-up ends, and the measured phase begins, at
   [begin_measure]: the first scheduled op on txn-many-conns, the end of
   the preload on the kv workloads. On a traced round it also arms the ledger, so
   per-layer rows cover exactly the measured phase. *)
type mark = { cpu : int; minor_w : int; major_w : float }

let mark_now () =
  let minor_w = minor () in
  let _, _, major_w = Gc.counters () in
  { cpu = cpu_ns (); minor_w; major_w }

let trace_round = ref false
let measuring = ref false
let measure_start = ref (mark_now ())

let begin_measure owner =
  if not !measuring then begin
    measuring := true;
    measure_start := mark_now ();
    if !trace_round then start owner
  end

type snapshot = { s_ns : int array; s_words : int array; s_calls : int array }

let snapshot () = { s_ns = Array.copy ns; s_words = Array.copy words; s_calls = Array.copy calls }
