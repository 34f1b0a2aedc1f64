(* Growing-backlog detector. An overloaded open-loop point measures the
   client's backlog scanning, not the stack, so a run whose outstanding
   operations keep climbing is refused. Outstanding counts are sampled
   at each issue; the run is overloaded when the mean over the last
   quarter of the samples exceeds twice the mean over the second
   quarter (the first is start-up) plus a slack of [slack] ops. *)

type t = { mutable samples : int array; mutable n : int }

let slack = 64
let create () = { samples = Array.make 1024 0; n = 0 }
let reset t = t.n <- 0

let sample t outstanding =
  if t.n = Array.length t.samples then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.samples 0 bigger 0 t.n;
    t.samples <- bigger
  end;
  t.samples.(t.n) <- outstanding;
  t.n <- t.n + 1

let mean t lo hi =
  if hi <= lo then 0.
  else begin
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + t.samples.(i)
    done;
    float_of_int !s /. float_of_int (hi - lo)
  end

(* [Some (early, late)] means when the backlog grew. *)
let growing t =
  let q = t.n / 4 in
  let early = mean t q (2 * q) and late = mean t (3 * q) t.n in
  if late > (2. *. early) +. float_of_int slack then Some (early, late) else None
