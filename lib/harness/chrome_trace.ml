(* Chrome/Perfetto trace-event JSON export of Demitrace spans, plus a
   structural validator (used by `demi observe --check` and the tests).

   Layout: one Chrome "process" per span owner (host, device, fabric),
   one "thread" per component track. Component intervals may overlap
   (two frames in flight on the wire, two ops outstanding on a host), so
   each track is split into sub-tracks by greedy allocation: an interval
   goes to the first sub-track that is free at its start. Within a
   sub-track intervals never overlap, so B/E duration events are
   trivially balanced and durations are preserved exactly. *)

module Json = Metrics.Json

type ev = {
  name : string;
  cat : string;
  ph : char; (* 'B' | 'E' | 'X' | 'M' | 's' | 'f' (flow arrows) *)
  ts : int; (* virtual ns *)
  pid : int;
  tid : int;
  id : int option; (* flow-event binding id ('s'/'f' only) *)
  arg : (string * Json.t) option; (* the one "args" field: key, value *)
}

let ev ?id ?arg ~name ~cat ~pid ~tid ph ts = { name; cat; ph; ts; pid; tid; id; arg }

(* A zero-width slice is one complete 'X' event: the global sort puts E
   before B on timestamp ties, which would invert a zero-width B/E pair. *)
let slice ?arg ~name ~cat ~pid ~tid t0 t1 =
  if t1 = t0 then [ ev ?arg ~name ~cat ~pid ~tid 'X' t0 ]
  else [ ev ?arg ~name ~cat ~pid ~tid 'B' t0; ev ~name ~cat ~pid ~tid 'E' t1 ]

let ev_json e =
  let opt k = function Some v -> [ (k, v) ] | None -> [] in
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str e.cat);
       ("ph", Json.Str (String.make 1 e.ph));
       (* ts is microseconds in the trace-event format. *)
       ("ts", Json.Float (float_of_int e.ts /. 1000.));
       ("pid", Json.Int e.pid);
       ("tid", Json.Int e.tid);
     ]
    @ (if e.ph = 'X' then [ ("dur", Json.Int 0) ] else [])
    @ opt "id" (Option.map (fun id -> Json.Int id) e.id)
    (* bp:"e" binds the arrow head to the enclosing slice, not the next one. *)
    @ (if e.ph = 'f' then [ ("bp", Json.Str "e") ] else [])
    @ opt "args" (Option.map (fun (k, v) -> Json.Obj [ (k, v) ]) e.arg))

(* Render an event list as a trace JSON document. Global order:
   metadata first, then by ts; on ties E before B so a span ending at t
   closes before the next one starting at t opens. Shared by the span
   exporter and Demifleet's per-request lanes. *)
let render ?(extra = []) evs =
  let rank e = match e.ph with 'M' -> 0 | 'E' -> 1 | _ -> 2 in
  let indexed = List.mapi (fun i e -> (i, e)) evs in
  let sorted =
    List.stable_sort
      (fun (i, a) (j, b) ->
        match compare a.ts b.ts with
        | 0 -> ( match compare (rank a) (rank b) with 0 -> compare i j | c -> c)
        | c -> c)
      indexed
  in
  Json.to_string
    (Json.Obj
       ((("traceEvents", Json.Arr (List.map (fun (_, e) -> ev_json e) sorted))
        :: ("displayTimeUnit", Json.Str "ns") :: extra)))

(* Greedy sub-track allocation: items sorted by (start, longer first);
   returns (subtrack_index, item) with items on one sub-track disjoint. *)
let allocate items ~start ~stop =
  let items =
    List.stable_sort
      (fun a b ->
        match compare (start a) (start b) with 0 -> compare (stop b) (stop a) | c -> c)
      items
  in
  let tracks = ref [] (* (index, last_end) newest-layout list *) in
  let next = ref 0 in
  List.map
    (fun item ->
      let rec place = function
        | [] ->
            let idx = !next in
            incr next;
            tracks := !tracks @ [ (idx, ref (stop item)) ];
            idx
        | (idx, last_end) :: rest ->
            if !last_end <= start item then begin
              last_end := stop item;
              idx
            end
            else place rest
      in
      (place !tracks, item))
    items

let export ?(extra = []) spans =
  let intervals = Engine.Span.intervals spans in
  let ops = List.filter (fun op -> op.Engine.Span.closed_at <> None) (Engine.Span.ops spans) in
  let owners =
    List.sort_uniq String.compare
      (List.map (fun iv -> iv.Engine.Span.owner) intervals
      @ List.map (fun op -> op.Engine.Span.op_owner) ops)
  in
  let pid_of = List.mapi (fun i o -> (o, i + 1)) owners in
  let events = ref [] in
  let emit e = events := e :: !events in
  (* Where each op slice landed (pid/tid), for anchoring flow arrows. *)
  let op_slices = ref [] in
  List.iter
    (fun (owner, pid) ->
      emit
        (ev ~arg:("name", Json.Str owner) ~name:"process_name" ~cat:"__metadata" ~pid ~tid:0 'M' 0);
      let tid = ref 0 in
      let new_track name =
        incr tid;
        emit
          (ev ~arg:("name", Json.Str name) ~name:"thread_name" ~cat:"__metadata" ~pid ~tid:!tid 'M'
             0);
        !tid
      in
      (* ops first: the per-qtoken spans are the headline track. *)
      let my_ops = List.filter (fun op -> op.Engine.Span.op_owner = owner) ops in
      let placed_ops =
        allocate my_ops
          ~start:(fun op -> op.Engine.Span.opened_at)
          ~stop:(fun op -> Option.get op.Engine.Span.closed_at)
      in
      let op_tracks = Hashtbl.create 4 in
      List.iter
        (fun (sub, op) ->
          let tid =
            match Hashtbl.find_opt op_tracks sub with
            | Some tid -> tid
            | None ->
                let tid =
                  new_track (if sub = 0 then "ops" else Printf.sprintf "ops#%d" (sub + 1))
                in
                Hashtbl.replace op_tracks sub tid;
                tid
          in
          let t0 = op.Engine.Span.opened_at and t1 = Option.get op.Engine.Span.closed_at in
          let name =
            if op.Engine.Span.op_ok then
              Printf.sprintf "%s qt=%d" op.Engine.Span.op_kind op.Engine.Span.op_key
            else Printf.sprintf "%s qt=%d FAILED" op.Engine.Span.op_kind op.Engine.Span.op_key
          in
          List.iter emit (slice ~name ~cat:"op" ~pid ~tid t0 t1);
          op_slices := (op, pid, tid) :: !op_slices)
        placed_ops;
      (* then one track group per component, in fixed order. *)
      List.iter
        (fun comp ->
          let cname = Engine.Span.component_name comp in
          let mine =
            List.filter
              (fun iv -> iv.Engine.Span.owner = owner && iv.Engine.Span.comp = comp)
              intervals
          in
          if mine <> [] then begin
            let placed =
              allocate mine
                ~start:(fun iv -> iv.Engine.Span.t0)
                ~stop:(fun iv -> iv.Engine.Span.t1)
            in
            let tracks = Hashtbl.create 4 in
            List.iter
              (fun (sub, iv) ->
                let tid =
                  match Hashtbl.find_opt tracks sub with
                  | Some tid -> tid
                  | None ->
                      let tid =
                        new_track
                          (if sub = 0 then cname else Printf.sprintf "%s#%d" cname (sub + 1))
                      in
                      Hashtbl.replace tracks sub tid;
                      tid
                in
                let name = if iv.Engine.Span.label = "" then cname else iv.Engine.Span.label in
                List.iter emit
                  (slice ~name ~cat:cname ~pid ~tid iv.Engine.Span.t0 iv.Engine.Span.t1))
              placed
          end)
        Engine.Span.components)
    pid_of;
  (* Cross-host causal flows: join each wire event to op slices on both
     hosts. The arrow tail binds inside the latest op the source host
     had opened by the time the frame hit the wire (a push completes
     when its segments are queued, which can precede wire departure, so
     the tail timestamp is clamped into the anchor slice). The head
     binds inside the op that covers the arrival instant — for an echo,
     the server's pop. Dropped frames (and frames whose arrival no op
     covers) emit only the tail: a broken arrow. *)
  let by_owner = Hashtbl.create 8 in
  List.iter
    (fun ((op, _, _) as slice) ->
      let owner = op.Engine.Span.op_owner in
      let prev = match Hashtbl.find_opt by_owner owner with Some l -> l | None -> [] in
      Hashtbl.replace by_owner owner (slice :: prev))
    !op_slices;
  let latest_opened_before owner t =
    match Hashtbl.find_opt by_owner owner with
    | None -> None
    | Some slices ->
        List.fold_left
          (fun acc ((op, _, _) as slice) ->
            if op.Engine.Span.opened_at > t then acc
            else
              match acc with
              | Some (best, _, _) when best.Engine.Span.opened_at >= op.Engine.Span.opened_at ->
                  acc
              | _ -> Some slice)
          None slices
  in
  let covering owner t =
    match Hashtbl.find_opt by_owner owner with
    | None -> None
    | Some slices ->
        List.fold_left
          (fun acc ((op, _, _) as slice) ->
            if op.Engine.Span.opened_at > t || Option.get op.Engine.Span.closed_at < t then acc
            else
              match acc with
              | Some (best, _, _) when best.Engine.Span.opened_at >= op.Engine.Span.opened_at ->
                  acc
              | _ -> Some slice)
          None slices
  in
  let arrow_id = ref 0 in
  List.iter
    (fun w ->
      incr arrow_id;
      let id = !arrow_id in
      match latest_opened_before w.Engine.Span.wire_src w.Engine.Span.wire_t0 with
      | None -> () (* unattributed source: nothing to hang the arrow on *)
      | Some (sop, spid, stid) ->
          let sclosed = Option.get sop.Engine.Span.closed_at in
          let ts_s =
            max sop.Engine.Span.opened_at (min w.Engine.Span.wire_t0 sclosed)
          in
          emit (ev ~id ~name:w.Engine.Span.wire_label ~cat:"flow" ~pid:spid ~tid:stid 's' ts_s);
          (match w.Engine.Span.wire_status with
          | Engine.Span.Wire_dropped _ -> () (* broken arrow: tail only *)
          | Engine.Span.Wire_delivered -> (
              match covering w.Engine.Span.wire_dst w.Engine.Span.wire_t1 with
              | None -> ()
              | Some (dop, dpid, dtid) ->
                  let ts_f =
                    max dop.Engine.Span.opened_at
                      (min w.Engine.Span.wire_t1 (Option.get dop.Engine.Span.closed_at))
                  in
                  let name = w.Engine.Span.wire_label in
                  emit (ev ~id ~name ~cat:"flow" ~pid:dpid ~tid:dtid 'f' ts_f))))
    (Engine.Span.wire_events spans);
  render ~extra (List.rev !events)

(* ---------- validator ---------- *)

exception Bad of string

(* Structural validation: well-formed JSON, a traceEvents array whose
   events carry the required fields, globally monotone ts, balanced
   B/E per (pid, tid) with an empty stack at the end, and flow arrows
   ('s'/'f') carrying numeric ids with every head ('f') preceded by its
   tail ('s'). A tail with no head is legal — that is how a dropped
   frame renders. *)
let validate text =
  try
    let root = match Json.parse text with Ok v -> v | Error why -> raise (Bad why) in
    let events =
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) -> evs
      | Some _ -> raise (Bad "traceEvents is not an array")
      | None -> raise (Bad "no traceEvents field")
    in
    let stacks = Hashtbl.create 16 in
    let flows = Hashtbl.create 16 in
    let last_ts = ref neg_infinity in
    let count = ref 0 in
    List.iter
      (fun e ->
        incr count;
        let field what conv k =
          match Option.bind (Json.member k e) conv with
          | Some v -> v
          | None -> raise (Bad (Printf.sprintf "event %d: missing %s %s" !count what k))
        in
        let name = field "string" Json.to_str "name" in
        let ph = field "string" Json.to_str "ph" in
        let ts = field "number" Json.to_float "ts" in
        let pid = field "integer" Json.to_int "pid" in
        let tid = field "integer" Json.to_int "tid" in
        if ts < !last_ts then raise (Bad (Printf.sprintf "event %d (%s): ts not monotone" !count name));
        last_ts := ts;
        let key = (pid, tid) in
        let stack = match Hashtbl.find_opt stacks key with Some s -> s | None -> [] in
        match ph with
        | "B" -> Hashtbl.replace stacks key (name :: stack)
        | "E" -> (
            match stack with
            | _ :: rest -> Hashtbl.replace stacks key rest
            | [] ->
                raise
                  (Bad (Printf.sprintf "event %d (%s): E without matching B on %d/%d" !count name pid tid)))
        | "M" | "X" -> ()
        | "s" | "t" | "f" -> (
            let id =
              match Option.bind (Json.member "id" e) Json.to_int with
              | Some id -> id
              | None ->
                  raise (Bad (Printf.sprintf "event %d (%s): flow event without id" !count name))
            in
            match ph with
            | "s" -> Hashtbl.replace flows id ()
            | _ ->
                if not (Hashtbl.mem flows id) then
                  raise
                    (Bad
                       (Printf.sprintf "event %d (%s): flow %s id=%d with no preceding s" !count
                          name ph id)))
        | ph -> raise (Bad (Printf.sprintf "event %d (%s): unknown phase %s" !count name ph)))
      events;
    let unbalanced = Hashtbl.fold (fun _ s acc -> acc + List.length s) stacks 0 in
    if unbalanced > 0 then raise (Bad (Printf.sprintf "%d unclosed B event(s)" unbalanced));
    Ok !count
  with Bad why -> Error why
