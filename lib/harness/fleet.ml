(* Demifleet: stitch one experiment's causal events (Engine.Causal) and
   wire events (Net.Flow / Engine.Span) into per-request causal DAGs,
   extract each request's critical path, and aggregate a fleet-wide
   profile keyed by (hop, component). Everything here is post-run
   analysis over recorders that are themselves pure observers. *)

open Demikernel

(* ---------- DAG ---------- *)

type edge = {
  e_req : int;
  e_msg : int;
  e_hop : int; (* leg index: the sender's hop count. A zero-copy relay
                  forwards bytes unchanged (the in-frame hop cannot be
                  rewritten without observer effect), but its Sent note
                  records hop+1, so the sender side carries the truth. *)
  e_src : string;
  e_dst : string;
  e_send_op : int;
  e_recv_op : int;
  e_t0 : int; (* Sent (push submission) *)
  e_t1 : int; (* Received (app-level extraction) *)
  e_evidence : Engine.Span.wire_event list;
}

type seg = {
  s_host : string;
  s_comp : string; (* issue | net | serve | deliver *)
  s_hop : int;
  s_t0 : int;
  s_t1 : int;
}

type request = {
  r_id : int;
  r_host : string; (* root host: where Begin was noted *)
  r_begin : int;
  r_end : int;
  r_events : Engine.Causal.event list; (* oldest first *)
  r_edges : edge list; (* by send time *)
  r_critical : seg list; (* oldest first; contiguous partition *)
}

let seg_dur s = s.s_t1 - s.s_t0

let critical_sum r = List.fold_left (fun n s -> n + seg_dur s) 0 r.r_critical

let critical_exact r = critical_sum r = r.r_end - r.r_begin

(* Pair each Received with the most recent unmatched Sent of the same
   msg id. A zero-copy relay forwards a message without rewriting it,
   so one msg id legitimately crosses several hops: S(gen) R(relay)
   S(relay) R(gen) pairs as two edges. *)
let edges_of_msg wire evs =
  let evs =
    List.stable_sort (fun a b -> compare a.Engine.Causal.ev_time b.Engine.Causal.ev_time) evs
  in
  let pending = ref [] in
  let out = ref [] in
  List.iter
    (fun (e : Engine.Causal.event) ->
      match e.ev_kind with
      | Engine.Causal.Sent -> pending := e :: !pending
      | Engine.Causal.Received -> (
          match !pending with
          | s :: rest ->
              pending := rest;
              out :=
                {
                  e_req = e.ev_req; e_msg = e.ev_msg; e_hop = s.ev_hop;
                  e_src = s.ev_host; e_dst = e.ev_host;
                  e_send_op = s.ev_op; e_recv_op = e.ev_op;
                  e_t0 = s.ev_time; e_t1 = e.ev_time;
                  e_evidence =
                    Net.Flow.evidence ~src:s.ev_host ~dst:e.ev_host ~t0:s.ev_time
                      ~t1:e.ev_time wire;
                }
                :: !out
          | [] -> ())
      | Engine.Causal.Begin | Engine.Causal.End -> ())
    evs;
  List.rev !out

(* Walk the critical path backwards from End: the latest Received on
   the current host explains when its final segment could start; its
   matching Sent moves the walk to the upstream host; a host with no
   earlier Received for this request is the origin. Segments partition
   [Begin, End] by construction, so their sum is exact. *)
let critical_path ~root_host ~r_begin ~r_end evs =
  let latest_received ~host ~before =
    List.fold_left
      (fun best (e : Engine.Causal.event) ->
        if
          e.ev_kind = Engine.Causal.Received
          && String.equal e.ev_host host
          && e.ev_time <= before
          && (match best with
             | Some b -> e.Engine.Causal.ev_time > b.Engine.Causal.ev_time
             | None -> true)
        then Some e
        else best)
      None evs
  in
  let latest_sent ~msg ~before =
    List.fold_left
      (fun best (e : Engine.Causal.event) ->
        if
          e.ev_kind = Engine.Causal.Sent && e.ev_msg = msg && e.ev_time <= before
          && (match best with
             | Some b -> e.Engine.Causal.ev_time > b.Engine.Causal.ev_time
             | None -> true)
        then Some e
        else best)
      None evs
  in
  let origin host t acc =
    { s_host = host; s_comp = "issue"; s_hop = 0; s_t0 = r_begin; s_t1 = t } :: acc
  in
  let rec walk fuel t host acc =
    if fuel = 0 then origin host t acc
    else
      match latest_received ~host ~before:t with
      | None -> origin host t acc
      | Some r -> (
          match latest_sent ~msg:r.ev_msg ~before:r.ev_time with
          | None -> origin host t acc
          | Some s ->
              let host_comp = if String.equal host root_host then "deliver" else "serve" in
              let acc =
                { s_host = host; s_comp = host_comp; s_hop = s.ev_hop; s_t0 = r.ev_time; s_t1 = t }
                :: acc
              in
              let acc =
                {
                  s_host = s.ev_host ^ "\xe2\x86\x92" ^ r.ev_host (* → *);
                  s_comp = "net"; s_hop = s.ev_hop; s_t0 = s.ev_time; s_t1 = r.ev_time;
                }
                :: acc
              in
              walk (fuel - 1) s.ev_time s.ev_host acc)
  in
  walk 128 r_end root_host []

let dag ?spans causal =
  let wire = match spans with Some s -> Engine.Span.wire_events s | None -> [] in
  let by_req : (int, Engine.Causal.event list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : Engine.Causal.event) ->
      if e.ev_req <> 0 then
        match Hashtbl.find_opt by_req e.ev_req with
        | Some l -> l := e :: !l
        | None ->
            Hashtbl.add by_req e.ev_req (ref [ e ]);
            order := e.ev_req :: !order)
    (Engine.Causal.events causal);
  List.rev_map
    (fun id ->
      let evs = List.rev !(Hashtbl.find by_req id) in
      let r_begin, r_host =
        match List.find_opt (fun e -> e.Engine.Causal.ev_kind = Engine.Causal.Begin) evs with
        | Some b -> (b.Engine.Causal.ev_time, b.Engine.Causal.ev_host)
        | None -> (
            match evs with e :: _ -> (e.ev_time, e.ev_host) | [] -> (0, "?"))
      in
      let r_end =
        let ends = List.filter (fun e -> e.Engine.Causal.ev_kind = Engine.Causal.End) evs in
        match List.rev ends with
        | last :: _ -> last.Engine.Causal.ev_time
        | [] -> List.fold_left (fun m e -> Stdlib.max m e.Engine.Causal.ev_time) r_begin evs
      in
      let by_msg : (int, Engine.Causal.event list ref) Hashtbl.t = Hashtbl.create 8 in
      let msg_order = ref [] in
      List.iter
        (fun (e : Engine.Causal.event) ->
          if e.ev_msg <> 0 then
            match Hashtbl.find_opt by_msg e.ev_msg with
            | Some l -> l := e :: !l
            | None ->
                Hashtbl.add by_msg e.ev_msg (ref [ e ]);
                msg_order := e.ev_msg :: !msg_order)
        evs;
      let r_edges =
        List.concat_map (fun m -> edges_of_msg wire (List.rev !(Hashtbl.find by_msg m)))
          (List.rev !msg_order)
        |> List.stable_sort (fun a b -> compare a.e_t0 b.e_t0)
      in
      let r_critical = critical_path ~root_host:r_host ~r_begin ~r_end evs in
      { r_id = id; r_host; r_begin; r_end; r_events = evs; r_edges; r_critical })
    !order

(* ---------- fleet profile ---------- *)

type prow = {
  pr_hop : int;
  pr_comp : string;
  pr_hdr : Metrics.Hdr.t;
  mutable pr_total : int;
  mutable pr_count : int;
}

type profile = {
  p_app : string;
  mutable p_rows : prow list; (* in first-seen order *)
  p_e2e : Metrics.Hdr.t;
  mutable p_e2e_total : int;
  mutable p_requests : int;
}

let profile ~app requests =
  let p = { p_app = app; p_rows = []; p_e2e = Metrics.Hdr.create (); p_e2e_total = 0; p_requests = 0 } in
  let row hop comp =
    match
      List.find_opt (fun r -> r.pr_hop = hop && String.equal r.pr_comp comp) p.p_rows
    with
    | Some r -> r
    | None ->
        let r = { pr_hop = hop; pr_comp = comp; pr_hdr = Metrics.Hdr.create (); pr_total = 0; pr_count = 0 } in
        p.p_rows <- p.p_rows @ [ r ];
        r
  in
  List.iter
    (fun req ->
      p.p_requests <- p.p_requests + 1;
      let e2e = req.r_end - req.r_begin in
      Metrics.Hdr.add p.p_e2e e2e;
      p.p_e2e_total <- p.p_e2e_total + e2e;
      (* Sum per (hop, comp) within the request first, so each request
         contributes one sample per key — quantiles are per-request. *)
      let local = ref [] in
      List.iter
        (fun s ->
          let k = (s.s_hop, s.s_comp) in
          match List.assoc_opt k !local with
          | Some cell -> cell := !cell + seg_dur s
          | None -> local := (k, ref (seg_dur s)) :: !local)
        req.r_critical;
      List.iter
        (fun ((hop, comp), cell) ->
          let r = row hop comp in
          Metrics.Hdr.add r.pr_hdr !cell;
          r.pr_total <- r.pr_total + !cell;
          r.pr_count <- r.pr_count + 1)
        (List.rev !local))
    requests;
  p

let profile_exact p =
  List.fold_left (fun n r -> n + r.pr_total) 0 p.p_rows = p.p_e2e_total

(* ---------- Chrome export: one lane per request ---------- *)

let chrome_export ~app requests =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  let meta name arg tid =
    Chrome_trace.ev ~arg:("name", Metrics.Json.Str arg) ~name ~cat:"__metadata" ~pid:1 ~tid 'M' 0
  in
  emit (meta "process_name" ("fleet:" ^ app) 0);
  List.iter
    (fun r ->
      emit
        (meta "thread_name"
           (Printf.sprintf "req %d (%d ns, root %s)" r.r_id (r.r_end - r.r_begin) r.r_host)
           r.r_id);
      List.iter
        (fun s ->
          let arg =
            ( "seg",
              Metrics.Json.(
                Obj [ ("host", Str s.s_host); ("hop", Int s.s_hop); ("ns", Int (seg_dur s)) ]) )
          in
          List.iter emit
            (Chrome_trace.slice ~arg ~name:s.s_comp ~cat:"critical" ~pid:1 ~tid:r.r_id s.s_t0
               s.s_t1))
        r.r_critical;
      List.iter
        (fun e ->
          let name = Printf.sprintf "msg %d" e.e_msg and id = (e.e_msg * 131) + e.e_hop in
          emit (Chrome_trace.ev ~id ~name ~cat:"flow" ~pid:1 ~tid:r.r_id 's' e.e_t0);
          emit (Chrome_trace.ev ~id ~name ~cat:"flow" ~pid:1 ~tid:r.r_id 'f' e.e_t1))
        r.r_edges)
    requests;
  Chrome_trace.render (List.rev !evs)

(* ---------- scenarios ---------- *)

type run = {
  flavor : Demikernel.Boot.flavor;
  app : string;
  digest : string;
  latencies : int list; (* per request, completion order *)
  causal : Engine.Causal.t option;
  spans : Engine.Span.t option;
  flight : Engine.Flight.t option;
}

(* [recording] arms causal, spans and flight together; [false] is the
   observer-effect gate's bare arm. The event trace is always on: its
   digest is what the gate compares. *)
let instruments w ~recording =
  let trace = Engine.Sim.enable_trace w.Common.sim in
  let arm enable = if recording then Some (enable w.Common.sim) else None in
  let causal = arm Engine.Sim.enable_causal in
  let spans = arm Engine.Sim.enable_spans in
  let flight = arm Engine.Sim.enable_flight in
  (trace, causal, spans, flight)

let txnstore ?(recording = true) ?(replicas = 3) ?(count = 8) ?quorum ?(value_size = 64)
    ?(loss = 0.) flavor =
  let w = Common.make_world ~loss () in
  let trace, causal, spans, flight = instruments w ~recording in
  let eps =
    List.init replicas (fun i ->
        let node =
          Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:(i + 1)
            ~name:(Printf.sprintf "replica%d" (i + 1)) flavor
        in
        Demikernel.Boot.run_app node (Apps.Txnstore.server ~port:7447);
        Demikernel.Boot.start node;
        Demikernel.Boot.endpoint node 7447)
  in
  let client =
    Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:(replicas + 1) ~name:"client" flavor
  in
  let lats = ref [] in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Txnstore.connect api ~replicas:eps ~seed:7 in
      let value = String.make value_size 'v' in
      for i = 1 to count do
        let t0 = api.Pdpix.clock () in
        Apps.Txnstore.put ?quorum c (Printf.sprintf "key:%04d" i) ~version:i value;
        lats := (api.Pdpix.clock () - t0) :: !lats
      done;
      Apps.Txnstore.close c);
  Demikernel.Boot.start client;
  Common.run_world w;
  {
    flavor; app = "txnstore"; digest = Engine.Trace.digest trace;
    latencies = List.rev !lats; causal; spans; flight;
  }

let relay ?(recording = true) ?(count = 8) ?(msg_size = 64) ?(loss = 0.) flavor =
  let w = Common.make_world ~loss () in
  let trace, causal, spans, flight = instruments w ~recording in
  let server =
    Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:1 ~name:"relay" flavor
  in
  Demikernel.Boot.run_app server (Apps.Relay.server ~port:3478);
  Demikernel.Boot.start server;
  let gen = Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:2 ~name:"gen" flavor in
  let lats = ref [] in
  Demikernel.Boot.run_app gen
    (Apps.Relay.generator
       ~dst:(Demikernel.Boot.endpoint server 3478)
       ~src_port:4000 ~session:7 ~msg_size ~count
       ~record:(fun ns -> lats := ns :: !lats));
  Demikernel.Boot.start gen;
  Common.run_world w;
  {
    flavor; app = "relay"; digest = Engine.Trace.digest trace; latencies = List.rev !lats;
    causal; spans; flight;
  }
