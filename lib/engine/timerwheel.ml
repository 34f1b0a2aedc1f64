(* Indexed binary min-heap of handles ordered by (deadline, seq), 1 ns
   resolution.

   Every armed handle records its own index in [heap] ([pos]), so
   [cancel] removes it in place: nothing dead ever sits in the heap,
   and the root is always the exact earliest live deadline. [pos = -1]
   marks a handle that fired or was cancelled. Slots at [len] and
   beyond hold [Vacant], so the wheel keeps no removed handle (nor its
   payload) reachable. [Vacant] also sorts after every armed handle,
   which lets the peek read the root without an emptiness test. *)

type 'a handle =
  | Vacant
  | Armed of { deadline : int; seq : int; payload : 'a; mutable pos : int }

type 'a t = {
  mutable last : int; (* virtual time the wheel has expired up to *)
  mutable seq : int; (* next insertion sequence number *)
  mutable heap : 'a handle array; (* [0, len) is the heap *)
  mutable len : int;
  mutable activity : int; (* cumulative firings *)
}

let create ?(start = 0) () =
  { last = start; seq = 0; heap = Array.make 16 Vacant; len = 0; activity = 0 }

let size t = t.len
let activity t = t.activity
let handle_deadline h = match h with Armed e -> e.deadline | Vacant -> max_int
let handle_live h = match h with Armed e -> e.pos >= 0 | Vacant -> false
let seq_of h = match h with Armed e -> e.seq | Vacant -> max_int

let earlier a b =
  let da = handle_deadline a and db = handle_deadline b in
  da < db || (da = db && seq_of a < seq_of b)

let place t i h =
  t.heap.(i) <- h;
  match h with Armed e -> e.pos <- i | Vacant -> ()

let rec sift_up t i h =
  let parent = (i - 1) / 2 in
  if i > 0 && earlier h t.heap.(parent) then begin
    place t i t.heap.(parent);
    sift_up t parent h
  end
  else place t i h

let rec sift_down t i h =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.len && earlier t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if c < t.len && earlier t.heap.(c) h then begin
    place t i t.heap.(c);
    sift_down t c h
  end
  else place t i h

let add t ~deadline payload =
  let deadline = if deadline < t.last then t.last else deadline in
  let h = Armed { deadline; seq = t.seq; payload; pos = -1 } in
  t.seq <- t.seq + 1;
  if t.len = Array.length t.heap then begin
    let heap = Array.make (2 * t.len) Vacant in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) h;
  h

(* Unlink the entry at [i]: the last entry fills the hole and moves up
   or down from there. *)
let remove_at t i =
  t.len <- t.len - 1;
  let last = t.heap.(t.len) in
  t.heap.(t.len) <- Vacant;
  if i < t.len then
    if i > 0 && earlier last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last

let cancel t h =
  match h with
  | Armed e when e.pos >= 0 ->
      let i = e.pos in
      e.pos <- -1;
      remove_at t i
  | Armed _ | Vacant -> ()

(* dlint: hotpath *)
let next_deadline_ns t = handle_deadline t.heap.(0)

let next_deadline t =
  match next_deadline_ns t with d when d = max_int -> None | d -> Some d

(* Pop the root while it is due and was armed before this [expire]
   began ([seq < limit]). Entries a callback arms have [seq >= limit]
   and a deadline of at least [t.last], so they sort after every due
   older entry: stopping at the first one is exact. *)
let rec pop_due t limit f =
  match t.heap.(0) with
  | Armed e when e.deadline <= t.last && e.seq < limit ->
      e.pos <- -1;
      remove_at t 0;
      t.activity <- t.activity + 1;
      f e.payload;
      pop_due t limit f
  | Armed _ | Vacant -> ()

(* dlint: hotpath *)
let expire t ~now f =
  if now > t.last then t.last <- now;
  pop_due t t.seq f
