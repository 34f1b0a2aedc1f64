(* Every parked fiber is one [waiter], whichever of [wait],
   [wait_timeout] and [wait_many] parked it. It sits in each of its
   condvars' FIFO queues through one [link] and has at most two pending
   events: the wake-up a broadcast scheduled and its timeout. Both run
   [fire], and the first to run unlinks the waiter from every queue and
   cancels the other event before resuming the fiber. So a condvar only
   ever holds parked fibers, and nothing a resumed fiber leaves behind
   runs as a no-op. *)

type outcome = [ `Signaled | `Timeout ]

type waiter = {
  sim : Sim.t;
  resume : outcome -> unit;
  mutable links : link list; (* one per condvar it waits on *)
  mutable wake : Sim.timer; (* a broadcast's pending wake-up *)
  mutable timeout : Sim.timer;
}

(* A node of a circular doubly linked queue; an unlinked node points to
   itself. Each condvar's queue hangs off a sentinel node. *)
and link = { owner : waiter; mutable prev : link; mutable next : link }

type t = { sim : Sim.t; sentinel : link }

let unlink l =
  l.prev.next <- l.next;
  l.next.prev <- l.prev;
  l.prev <- l;
  l.next <- l

let fire (w : waiter) outcome =
  List.iter unlink w.links;
  Sim.cancel w.sim w.wake;
  Sim.cancel w.sim w.timeout;
  w.resume outcome

let make_waiter sim resume =
  { sim; resume; links = []; wake = Sim.no_timer; timeout = Sim.no_timer }

let create sim =
  let owner = make_waiter sim ignore in
  let rec sentinel = { owner; prev = sentinel; next = sentinel } in
  { sim; sentinel }

(* Append [w] at the tail of [t]'s queue. *)
let enqueue w t =
  let s = t.sentinel in
  let l = { owner = w; prev = s.prev; next = s } in
  s.prev.next <- l;
  s.prev <- l;
  l

let park sim cvs ~timeout =
  Fiber.suspend (fun resume ->
      let w = make_waiter sim resume in
      w.links <- List.map (enqueue w) cvs;
      match timeout with
      | Some span -> w.timeout <- Sim.timer sim ~delay:(max 0 span) (fun () -> fire w `Timeout)
      | None -> ())

let wait t =
  let (_ : outcome) = park t.sim [ t ] ~timeout:None in
  ()

let wait_timeout t span = park t.sim [ t ] ~timeout:(Some span)
let wait_many sim cvs ~timeout = park sim cvs ~timeout

(* Detach the nodes from [l] up to the sentinel [s], scheduling each
   waiter's wake-up in FIFO order. A waiter whose wake-up is already
   pending (a broadcast on another of its condvars got there first)
   gets no second one: that one would run after it, as a no-op. *)
let rec wake_from s l =
  if l != s then begin
    let next = l.next in
    l.prev <- l;
    l.next <- l;
    let w = l.owner in
    if not (Sim.armed w.wake) then w.wake <- Sim.timer w.sim ~delay:0 (fun () -> fire w `Signaled);
    wake_from s next
  end

(* dlint-allow: transitive-alloc-in-hotpath scan-in-hotpath -- wakeup handoff: one event per parked waiter, and the queue holds parked fibers only (fired waiters unlink themselves; test_engine "condvar holds parked fibers only"); nothing when nobody waits *)
let broadcast t =
  let s = t.sentinel in
  let first = s.next in
  s.prev <- s;
  s.next <- s;
  wake_from s first

let waiters t =
  let s = t.sentinel in
  let rec count n l = if l == s then n else count (n + 1) l.next in
  count 0 s.next
