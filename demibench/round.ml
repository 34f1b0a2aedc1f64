(* What one round of a workload yields: a fresh world built, set up,
   driven through its whole schedule and checked. *)

type t = {
  setup_s : float;  (** process CPU s from world build to the first scheduled op *)
  cpu_s : float;  (** process CPU s of the measured phase *)
  minor_words : int;  (** of the measured phase *)
  major_words : float;
  attempted : int;
  completed : int;
  wrong : int;  (** replies that disagree with the benchmark's model *)
  failed_ops : int;  (** [Failed] completions *)
  unfinished : int;  (** still pending when the grace period ended *)
  first_error : string;
  lat : Metrics.Hdr.t;  (** virtual ns from scheduled arrival to reply *)
  virt_ns : int;  (** virtual ns from the first arrival to the last reply *)
  gen_late : Metrics.Hdr.t;  (** virtual ns from scheduled arrival to socket write *)
  events : int;  (** simulator events (kv workloads) or raw-stack polls (txn) *)
  frames : int;
  bytes : int;
  polls : int;
  useful_polls : int;
  sanitizer_errors : int;
      (** heap + TCB pool canaries, double frees and UAF, plus gc-budget
          violations of the raw-stack poll loop *)
  backlog : (float * float) option;  (** [Some] when the backlog grew *)
  ledger : (Ledger.snapshot * int * int) option;
      (** traced rounds: sections, window ns, window words *)
  rows : (string * float) list;  (** per-layer counters beyond the ledger *)
}

let failed r = r.wrong + r.failed_ops + r.unfinished

(* Everything virtual-time about a round. Two rounds of one seed — traced
   or not — must agree on all of it: the recorders may not perturb the
   simulation. *)
let fingerprint r =
  Printf.sprintf
    "completed=%d p50=%d p99=%d p999=%d n=%d max=%d virt_ns=%d late_p99=%d events=%d frames=%d \
     bytes=%d polls=%d useful=%d"
    r.completed (Metrics.Hdr.p50 r.lat) (Metrics.Hdr.p99 r.lat) (Metrics.Hdr.p999 r.lat)
    (Metrics.Hdr.count r.lat) (Metrics.Hdr.max r.lat) r.virt_ns (Metrics.Hdr.p99 r.gen_late)
    r.events r.frames r.bytes r.polls r.useful_polls
