(* kv-read-small and kv-write-large: Catnip on both hosts, Apps.Dkv.server
   behind the full PDPIX path, driven open loop by the benchmark's own
   client from a schedule built with Apps.Loadgen.plan.

   The client pins each key to one connection (key mod [nconns]), so every
   operation on a key rides one TCP stream and the server applies them
   in issue order. Its model is then exact: a GET must return the value
   of the latest SET issued before it for that key (all keys are
   preloaded, so never Not_found). SET values are drawn from [nvals]
   distinct strings of the workload's value size. *)

open Demikernel
module A = Demibench_orig.Apps
module Heap = Demibench_orig.Memory.Heap

type cfg = {
  value_size : int;
  get_ratio : float;
  rate_per_sec : float;
  ops : int;  (** scheduled ops per round *)
}

let port = 6379
let nconns = 16
let nkeys = 4096
let nvals = 251
(* One preload SET in flight per connection: a deeper window bursts past
   the server NIC's rx ring, and the drops leave RTO state behind that
   distorts the measured phase. *)
let preload_window = 16

(* Ops still pending this long (virtual) after the last scheduled
   arrival count as unfinished. *)
let grace_ns = 50_000_000

(* The PDPIX api as an app sees it, with every call timed as its ledger
   section. Flat switching (see Ledger): on return the app's own
   section, [owner], is current again. *)
let call1 s owner f a =
  ignore (Ledger.enter s);
  match f a with
  | v ->
      Ledger.leave owner;
      v
  | exception e ->
      Ledger.leave owner;
      raise e

let call2 s owner f a b =
  ignore (Ledger.enter s);
  match f a b with
  | v ->
      Ledger.leave owner;
      v
  | exception e ->
      Ledger.leave owner;
      raise e

let wrap owner (api : Pdpix.api) =
  let ctl = Ledger.pdpix_control in
  {
    api with
    Pdpix.socket = call1 ctl owner api.Pdpix.socket;
    bind = call2 ctl owner api.Pdpix.bind;
    listen = (fun qd ~backlog -> call1 ctl owner (fun qd -> api.Pdpix.listen qd ~backlog) qd);
    accept = call1 ctl owner api.Pdpix.accept;
    connect = call2 ctl owner api.Pdpix.connect;
    close = call1 ctl owner api.Pdpix.close;
    push = call2 Ledger.pdpix_push owner api.Pdpix.push;
    pop = call1 Ledger.pdpix_pop owner api.Pdpix.pop;
    wait = call1 Ledger.pdpix_wait owner api.Pdpix.wait;
    wait_any = call1 Ledger.pdpix_wait owner api.Pdpix.wait_any;
    wait_any_t =
      (fun qts ~timeout_ns ->
        ignore (Ledger.enter Ledger.pdpix_wait);
        match api.Pdpix.wait_any_t qts ~timeout_ns with
        | v ->
            Ledger.leave owner;
            v
        | exception e ->
            Ledger.leave owner;
            raise e);
    wait_all = call1 Ledger.pdpix_wait owner api.Pdpix.wait_all;
    alloc = call1 Ledger.pdpix_alloc owner api.Pdpix.alloc;
    alloc_str = call1 Ledger.pdpix_alloc owner api.Pdpix.alloc_str;
    free = call1 Ledger.pdpix_free owner api.Pdpix.free;
  }

type pend = { at : int; set : bool; expect : int (* value index a GET must return *) }

type conn = {
  qd : Pdpix.qd;
  acc : A.Framing.accum;
  pending : pend Queue.t;
  mutable pop : Pdpix.qtoken;
}

type client = {
  cfg : cfg;
  seed : int;
  vals : string array;
  model : int array; (* key -> value index of the latest SET issued *)
  lat : Metrics.Hdr.t;
  gen_late : Metrics.Hdr.t;
  backlog : Backlog.t;
  mutable issued : int;
  mutable completed : int;
  mutable wrong : int;
  mutable failed_ops : int;
  mutable unfinished : int;
  mutable first_error : string;
  mutable outstanding : int;
  mutable measuring : bool;
  mutable first_at : int;
  mutable last_done : int;
  mutable polls : int;
  mutable useful_polls : int;
}

let make_client cfg ~seed =
  {
    cfg;
    seed;
    vals =
      Array.init nvals (fun i ->
          let tag = Printf.sprintf "%03d:" i in
          String.init cfg.value_size (fun j ->
              if j < 4 then tag.[j] else Char.chr (97 + ((i + j) mod 26))));
    model = Array.make nkeys 0;
    lat = Metrics.Hdr.create ();
    gen_late = Metrics.Hdr.create ();
    backlog = Backlog.create ();
    issued = 0;
    completed = 0;
    wrong = 0;
    failed_ops = 0;
    unfinished = 0;
    first_error = "";
    outstanding = 0;
    measuring = false;
    first_at = 0;
    last_done = 0;
    polls = 0;
    useful_polls = 0;
  }

let fail cl msg =
  cl.wrong <- cl.wrong + 1;
  if cl.first_error = "" then cl.first_error <- msg

let me = Ledger.app_client

let client_main cl ~on_start ~on_done (api : Pdpix.api) =
  let cfg = cl.cfg in
  let dst = Net.Addr.endpoint (Net.Addr.Ip.of_index 1) port in
  let conns =
    Array.init nconns (fun _ ->
        let qd = api.Pdpix.socket Pdpix.Tcp in
        (match api.Pdpix.wait (api.Pdpix.connect qd dst) with
        | Pdpix.Connected -> ()
        | _ -> failwith "kv: connect failed");
        { qd; acc = A.Framing.create (); pending = Queue.create (); pop = api.Pdpix.pop qd })
  in
  (* Push tokens in flight with their buffers, newest first. *)
  let pushes = ref [] in
  let tokens = ref [||] and dirty = ref true in
  let issue ~at ~set ~key ~vi =
    let c = conns.(key mod nconns) in
    let body =
      if set then begin
        cl.model.(key) <- vi;
        A.Dkv.encode_command A.Dkv.Set ~key:(A.Workload.key_name key) ~value:cl.vals.(vi)
      end
      else A.Dkv.encode_command A.Dkv.Get ~key:(A.Workload.key_name key) ~value:""
    in
    let framed = call1 Ledger.framing_encode me A.Framing.encode body in
    let buf = api.Pdpix.alloc_str framed in
    if cl.measuring then Metrics.Hdr.add cl.gen_late (api.Pdpix.clock () - at);
    let qt = api.Pdpix.push c.qd [ buf ] in
    pushes := (qt, buf) :: !pushes;
    dirty := true;
    Queue.add { at; set; expect = cl.model.(key) } c.pending;
    cl.outstanding <- cl.outstanding + 1
  in
  let on_reply c resp =
    match Queue.take_opt c.pending with
    | None -> fail cl "reply with no request in flight"
    | Some p ->
        cl.outstanding <- cl.outstanding - 1;
        (match A.Dkv.parse_response resp with
        | Some (A.Dkv.Ok, v) ->
            if p.set then (if v <> "" then fail cl "SET reply carried a value")
            else if not (String.equal v cl.vals.(p.expect)) then
              fail cl "GET returned a value other than the latest SET"
        | Some ((A.Dkv.Not_found | A.Dkv.Error), _) | None -> fail cl "bad reply status");
        if cl.measuring then begin
          let now = api.Pdpix.clock () in
          Metrics.Hdr.add cl.lat (now - p.at);
          cl.completed <- cl.completed + 1;
          cl.last_done <- now
        end
  in
  let on_pop i sga =
    let c = conns.(i) in
    (match sga with
    | [] -> failwith "kv: server closed a connection"
    | _ ->
        List.iter
          (fun buf ->
            let s = call1 Ledger.heap_copy me Heap.to_string buf in
            call2 Ledger.framing_decode me A.Framing.feed c.acc s;
            api.Pdpix.free buf)
          sga);
    let rec drain () =
      match call1 Ledger.framing_decode me A.Framing.next c.acc with
      | Some resp ->
          on_reply c resp;
          drain ()
      | None -> ()
    in
    drain ();
    c.pop <- api.Pdpix.pop c.qd;
    dirty := true
  in
  let wait_one ~timeout_ns =
    if !dirty then begin
      tokens :=
        Array.append (Array.map (fun c -> c.pop) conns) (Array.of_list (List.map fst !pushes));
      dirty := false
    end;
    cl.polls <- cl.polls + 1;
    match api.Pdpix.wait_any_t !tokens ~timeout_ns with
    | None -> ()
    | Some (i, completion) -> (
        cl.useful_polls <- cl.useful_polls + 1;
        match completion with
        | Pdpix.Popped sga when i < nconns -> on_pop i sga
        | Pdpix.Failed reason when i < nconns -> failwith ("kv: pop failed: " ^ reason)
        | (Pdpix.Pushed | Pdpix.Failed _) as done_ when i >= nconns ->
            (match done_ with
            | Pdpix.Failed reason ->
                cl.failed_ops <- cl.failed_ops + 1;
                if cl.first_error = "" then cl.first_error <- "push failed: " ^ reason
            | _ -> ());
            let qt = !tokens.(i) in
            pushes :=
              List.filter
                (fun (q, buf) ->
                  if q = qt then begin
                    api.Pdpix.free buf;
                    false
                  end
                  else true)
                !pushes;
            dirty := true
        | _ -> failwith "kv: unexpected completion")
  in
  (* Set-up: preload every key, a bounded window in flight. *)
  for key = 0 to nkeys - 1 do
    while cl.outstanding >= preload_window do
      wait_one ~timeout_ns:1_000_000_000
    done;
    issue ~at:(api.Pdpix.clock ()) ~set:true ~key ~vi:0
  done;
  while cl.outstanding > 0 || !pushes <> [] do
    wait_one ~timeout_ns:1_000_000_000
  done;
  if cl.wrong > 0 || cl.failed_ops > 0 then failwith ("kv: preload failed: " ^ cl.first_error);
  (* The measured phase: the open-loop schedule. *)
  on_start ();
  cl.measuring <- true;
  let pl =
    A.Loadgen.plan
      ~prng:(Engine.Prng.create (Int64.of_int cl.seed))
      ~rate_per_sec:cfg.rate_per_sec ~keys:nkeys ~theta:0.99 ~get_ratio:cfg.get_ratio
      ~start_ns:(api.Pdpix.clock ())
  in
  cl.first_at <- A.Loadgen.peek_at pl;
  let grace = ref max_int in
  let rec loop () =
    while cl.issued < cfg.ops && A.Loadgen.peek_at pl <= api.Pdpix.clock () do
      let o = call1 Ledger.loadgen_next me A.Loadgen.next pl in
      cl.issued <- cl.issued + 1;
      Backlog.sample cl.backlog cl.outstanding;
      if cl.issued = cfg.ops then grace := o.A.Loadgen.at_ns + grace_ns;
      issue ~at:o.A.Loadgen.at_ns ~set:(o.A.Loadgen.kind = A.Loadgen.Set) ~key:o.A.Loadgen.key
        ~vi:(1 + (cl.issued mod (nvals - 1)))
    done;
    let now = api.Pdpix.clock () in
    let all_issued = cl.issued = cfg.ops in
    if all_issued && cl.outstanding = 0 && !pushes = [] then ()
    else if all_issued && now >= !grace then cl.unfinished <- cl.outstanding
    else begin
      let wake = if all_issued then !grace else A.Loadgen.peek_at pl in
      wait_one ~timeout_ns:(max 1 (wake - now));
      loop ()
    end
  in
  loop ();
  on_done ()

let nic_dropped (n : Boot.node) =
  match n.Boot.nic with Some nic -> Net.Dpdk_sim.rx_dropped nic | None -> 0

let heap_errors (n : Boot.node) =
  match Heap.sanitizer_report n.Boot.host.Host.heap with
  | Some r -> r.Heap.canary_violations + r.Heap.double_frees
  | None -> 0

let round cfg ~seed ~traced =
  Heap.set_sanitize_default true;
  Ledger.trace_round := traced;
  Ledger.measuring := false;
  Gc.full_major ();
  let r0 = Ledger.mark_now () in
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:Net.Cost.bare_metal () in
  let server = Boot.make sim fabric ~index:1 Boot.Catnip_os in
  let client = Boot.make sim fabric ~index:2 Boot.Catnip_os in
  let cl = make_client cfg ~seed in
  let spans = ref None in
  let finished = ref None in
  let base = ref (0, 0, 0, 0, 0, 0) in
  let counters () =
    let f = Net.Fabric.stats fabric in
    let hs = List.map (fun n -> Heap.stats n.Boot.host.Host.heap) [ server; client ] in
    ( Engine.Sim.events_processed sim,
      f.Net.Fabric.frames_delivered,
      f.Net.Fabric.bytes_carried,
      Dsched.context_switches (Runtime.sched server.Boot.rt)
      + Dsched.context_switches (Runtime.sched client.Boot.rt),
      List.fold_left (fun acc s -> acc + s.Heap.bytes_copied) 0 hs,
      List.fold_left (fun acc s -> acc + s.Heap.uaf_protected) 0 hs )
  in
  let on_start () =
    base := counters ();
    if traced then spans := Some (Engine.Sim.enable_spans ~capacity:1 sim);
    Ledger.begin_measure me
  in
  let on_done () =
    let ledger =
      if traced then begin
        let tot_ns, tot_words = Ledger.stop () in
        Some (Ledger.snapshot (), tot_ns, tot_words)
      end
      else None
    in
    finished := Some (ledger, Ledger.mark_now ());
    Engine.Sim.stop sim
  in
  let wrap_with owner = if traced then Some (wrap owner) else None in
  Boot.run_app server ?wrap:(wrap_with Ledger.app_dkv) (A.Dkv.server ~port);
  Boot.run_app client ?wrap:(wrap_with me) (client_main cl ~on_start ~on_done);
  Boot.start server;
  Boot.start client;
  Engine.Sim.run sim;
  let ledger, r1 =
    match !finished with Some f -> f | None -> failwith "kv: the client never finished"
  in
  let m0 = !Ledger.measure_start in
  let e0, f0, b0, sw0, cp0, uaf0 = !base in
  let e1, f1, b1, sw1, cp1, uaf1 = counters () in
  let per_op x = float_of_int x /. float_of_int (max 1 cl.completed) in
  (* The Engine.Span split of the measured phase's virtual time, as
     shares of all attributed time. *)
  let virt =
    match !spans with
    | None -> []
    | Some sp ->
        let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Engine.Span.totals sp) in
        List.map
          (fun comp ->
            ( Printf.sprintf "virt.%s.share" (Engine.Span.component_name comp),
              float_of_int (Engine.Span.total sp comp) /. float_of_int (max 1 total) ))
          Engine.Span.[ App; Sched; Libos; Proto; Device; Wire; Copy ]
  in
  let stacks =
    List.filter_map (fun n -> Option.map Catnip.stack n.Boot.catnip) [ server; client ]
  in
  {
    Round.setup_s = float_of_int (m0.Ledger.cpu - r0.Ledger.cpu) /. 1e9;
    cpu_s = float_of_int (r1.Ledger.cpu - m0.Ledger.cpu) /. 1e9;
    minor_words = r1.Ledger.minor_w - m0.Ledger.minor_w;
    major_words = r1.Ledger.major_w -. m0.Ledger.major_w;
    attempted = cfg.ops;
    completed = cl.completed;
    wrong = cl.wrong;
    failed_ops = cl.failed_ops;
    unfinished = cl.unfinished;
    first_error = cl.first_error;
    lat = cl.lat;
    virt_ns = cl.last_done - cl.first_at;
    gen_late = cl.gen_late;
    events = e1 - e0;
    frames = f1 - f0;
    bytes = b1 - b0;
    polls = cl.polls;
    useful_polls = cl.useful_polls;
    sanitizer_errors = heap_errors server + heap_errors client;
    backlog = Backlog.growing cl.backlog;
    ledger;
    rows =
      [
        ("dsched.switches_per_op", per_op (sw1 - sw0));
        ( "tcp.conns_peak",
          float_of_int
            (List.fold_left (fun acc s -> max acc (Tcp.Stack.conn_stats s).Tcp.Stack.peak) 0 stacks)
        );
        ( "tcp.retransmits",
          float_of_int (List.fold_left (fun acc s -> acc + Tcp.Stack.total_retransmits s) 0 stacks)
        );
        ("dpdk.rx_dropped", float_of_int (nic_dropped server + nic_dropped client));
        ("heap.bytes_copied_per_op", per_op (cp1 - cp0));
        ("heap.uaf_deferred", float_of_int (uaf1 - uaf0));
      ]
      @ virt;
  }
