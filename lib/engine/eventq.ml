(* Indexed binary min-heap of events ordered by (time, seq), the same
   shape as Timerwheel's. Every queued entry records its own index in
   [heap] ([pos]), so [cancel] unlinks it in place: nothing dead sits in
   the heap. [pos = -1] marks an entry that popped or was cancelled.
   Slots at [len] and beyond hold [none], so the set keeps no removed
   callback reachable. *)

type handle = { time : Clock.t; seq : int; fn : unit -> unit; mutable pos : int }

type t = {
  mutable heap : handle array; (* [0, len) is the heap *)
  mutable len : int;
  mutable next_seq : int;
}

let none = { time = max_int; seq = max_int; fn = (fun () -> ()); pos = -1 }

let create () = { heap = Array.make 256 none; len = 0; next_seq = 0 }

let queued h = h.pos >= 0

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let place t i e =
  t.heap.(i) <- e;
  e.pos <- i

let rec sift_up t i e =
  let parent = (i - 1) / 2 in
  if i > 0 && earlier e t.heap.(parent) then begin
    place t i t.heap.(parent);
    sift_up t parent e
  end
  else place t i e

let rec sift_down t i e =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i e
  else begin
    let c = if l + 1 < t.len && earlier t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    if earlier t.heap.(c) e then begin
      place t i t.heap.(c);
      sift_down t c e
    end
    else place t i e
  end

let grow t =
  let heap = Array.make (2 * Array.length t.heap) none in
  Array.blit t.heap 0 heap 0 t.len;
  t.heap <- heap

(* dlint-allow: transitive-alloc-in-hotpath -- the discrete-event substrate itself: one event record per scheduled event is the simulator's mechanism, not modeled datapath work (host cycle costs are charged via Cost, not by this allocation) *)
let add t ~time fn =
  if t.len = Array.length t.heap then grow t;
  let e = { time; seq = t.next_seq; fn; pos = -1 } in
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) e;
  e

(* Unlink the entry at [i]: the last entry fills the hole and moves up
   or down from there. *)
let remove_at t i =
  t.len <- t.len - 1;
  let last = t.heap.(t.len) in
  t.heap.(t.len) <- none;
  if i < t.len then
    if i > 0 && earlier last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last

let cancel t h =
  if h.pos >= 0 then begin
    let i = h.pos in
    h.pos <- -1;
    remove_at t i
  end

let min_time t =
  if t.len = 0 then invalid_arg "Eventq.min_time: empty";
  t.heap.(0).time

let pop t =
  if t.len = 0 then invalid_arg "Eventq.pop: empty";
  let top = t.heap.(0) in
  top.pos <- -1;
  remove_at t 0;
  top.fn

let is_empty t = t.len = 0
let size t = t.len
