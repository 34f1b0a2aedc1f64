type t = {
  mutable now : Clock.t;
  q : Eventq.t;
  prng : Prng.t;
  mutable stopped : bool;
  mutable horizon : Clock.t; (* the running [run]'s [until]; min_int outside [run] *)
  mutable processed : int;
  mutable tracer : Trace.t option;
  mutable spans : Span.t option;
  mutable flight : Flight.t option;
  mutable causal : Causal.t option;
  mutable teardown_hooks : (unit -> unit) list; (* newest first *)
  mutable sampler : (Clock.t -> unit) option;
  mutable sampler_interval : Clock.t;
  mutable sampler_next : Clock.t;
}

let create ?(seed = 1L) () =
  {
    now = 0;
    q = Eventq.create ();
    prng = Prng.create seed;
    stopped = false;
    horizon = min_int;
    processed = 0;
    tracer = None;
    spans = None;
    flight = None;
    causal = None;
    teardown_hooks = [];
    sampler = None;
    sampler_interval = 0;
    sampler_next = 0;
  }

let now t = t.now
let prng t = t.prng

type timer = Eventq.handle

let at t ~time fn =
  assert (time >= t.now);
  ignore (Eventq.add t.q ~time fn : timer)

let timer t ~delay fn =
  assert (delay >= 0);
  Eventq.add t.q ~time:(t.now + delay) fn

let schedule t ~delay fn = ignore (timer t ~delay fn : timer)
let cancel t timer = Eventq.cancel t.q timer
let no_timer = Eventq.none
let armed = Eventq.queued
let pending t = Eventq.size t.q

let stop t = t.stopped <- true

(* Make [time] the current instant, exactly as popping an event at
   [time] does. Fixed-interval sampling rides here instead of
   scheduling its own events: the pending-event set — and so the
   interleaving every other component observes — is byte-identical with
   sampling on or off. Each boundary crossed since the last event fires
   once, before the event executes, so a sample reads the state as of
   its nominal boundary time. *)
let advance t time =
  t.now <- time;
  (match t.sampler with
  | Some f ->
      while t.sampler_next <= t.now do
        f t.sampler_next;
        t.sampler_next <- t.sampler_next + t.sampler_interval
      done
  | None -> ());
  t.processed <- t.processed + 1

let run ?until t =
  t.stopped <- false;
  let horizon = match until with Some u -> u | None -> max_int in
  t.horizon <- horizon;
  let rec loop () =
    if (not t.stopped) && not (Eventq.is_empty t.q) then begin
      let time = Eventq.min_time t.q in
      if time > horizon then t.now <- horizon
      else begin
        let fn = Eventq.pop t.q in
        advance t time;
        fn ();
        loop ()
      end
    end
  in
  loop ();
  t.horizon <- min_int

(* An event at [now + delay] would get a fresh, largest seq, so it is
   the very next pop exactly when the run goes on (not stopped, within
   the horizon) and every queued event is strictly later: one queued at
   that same instant has a smaller seq and runs first. *)
let fast_forward t ~delay =
  assert (delay >= 0);
  let time = t.now + delay in
  if
    (not t.stopped)
    && time <= t.horizon
    && (Eventq.is_empty t.q || Eventq.min_time t.q > time)
  then begin
    advance t time;
    true
  end
  else false

let set_sampler t ~interval f =
  assert (interval > 0);
  t.sampler <- Some f;
  t.sampler_interval <- interval;
  t.sampler_next <- t.now + interval

let clear_sampler t = t.sampler <- None

let events_processed t = t.processed

let at_teardown t hook = t.teardown_hooks <- hook :: t.teardown_hooks

let teardown t =
  (* Registration order (oldest first), and idempotent: a second call is
     a no-op unless new hooks were registered in between. *)
  let hooks = List.rev t.teardown_hooks in
  t.teardown_hooks <- [];
  List.iter (fun hook -> hook ()) hooks

let enable_trace ?capacity t =
  match t.tracer with
  | Some tr -> tr
  | None ->
      let tr = Trace.create ?capacity () in
      t.tracer <- Some tr;
      (* Drops were silently counted before; surface them once the run
         is over so a truncated --trace timeline is never mistaken for
         the whole story. *)
      at_teardown t (fun () ->
          let n = Trace.dropped tr in
          if n > 0 then
            Format.eprintf
              "trace report: %d event(s) dropped from the ring (raise with --trace-capacity)@."
              n);
      tr

let trace t = t.tracer

let trace_event t ~category msg =
  match t.tracer with
  | Some tr -> Trace.record tr ~now:t.now ~category (msg ())
  | None -> ()

let enable_spans ?capacity t =
  match t.spans with
  | Some s -> s
  | None ->
      let s = Span.create ?capacity () in
      t.spans <- Some s;
      at_teardown t (fun () -> Span.log_teardown s);
      s

let spans t = t.spans

let enable_flight ?capacity t =
  match t.flight with
  | Some f -> f
  | None ->
      let f = Flight.create ?capacity () in
      t.flight <- Some f;
      f

let flight t = t.flight

let enable_causal ?capacity t =
  match t.causal with
  | Some c -> c
  | None ->
      let c = Causal.create ?capacity () in
      t.causal <- Some c;
      at_teardown t (fun () ->
          let n = Causal.dropped c in
          if n > 0 then
            Format.eprintf
              "causal report: %d event(s) dropped from the ring (raise the capacity)@." n);
      c

let causal t = t.causal

(* One branch when no recorder is attached; when one is, the record is
   O(1) into pre-allocated arrays. Unlike trace_event there is no thunk
   to skip: the operands are ints and the label a static string, so the
   call site costs nothing to build. *)
(* dlint: hotpath *)
let flight_note t ~cat ~label a b =
  match t.flight with
  | None -> ()
  | Some f -> Flight.record f ~now:t.now ~cat ~label a b

let span_interval ?key ?label t ~comp ~owner ~t0 ~t1 =
  match t.spans with
  | None -> ()
  | Some s -> Span.note ?key ?label s ~comp ~owner ~t0 ~t1

let span_note ?key ?label t ~comp ~owner ~dur =
  match t.spans with
  | None -> ()
  | Some s -> Span.note ?key ?label s ~comp ~owner ~t0:t.now ~t1:(t.now + dur)

let span_wire t ~flow ~src ~dst ~label ~t0 ~t1 ~status =
  match t.spans with
  | None -> ()
  | Some s -> Span.note_wire s ~flow ~src ~dst ~label ~t0 ~t1 ~status
