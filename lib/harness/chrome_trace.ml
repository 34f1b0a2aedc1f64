(* Chrome/Perfetto trace-event JSON export of Demitrace spans, plus a
   structural validator (used by `demi observe --check` and the tests).

   Layout: one Chrome "process" per span owner (host, device, fabric),
   one "thread" per component track. Component intervals may overlap
   (two frames in flight on the wire, two ops outstanding on a host), so
   each track is split into sub-tracks by greedy allocation: an interval
   goes to the first sub-track that is free at its start. Within a
   sub-track intervals never overlap, so B/E duration events are
   trivially balanced and durations are preserved exactly. *)

type ev = {
  name : string;
  cat : string;
  ph : char; (* 'B' | 'E' | 'X' | 'M' | 's' | 'f' (flow arrows) *)
  ts : int; (* virtual ns *)
  pid : int;
  tid : int;
  id : int option; (* flow-event binding id ('s'/'f' only) *)
  arg : (string * string) option; (* key, raw json *)
}

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ts is microseconds in the trace-event format; print ns exactly as
   fractional us so no precision is lost. *)
let ts_string ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let ev_json e =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%s,\"pid\":%d,\"tid\":%d"
       (escape e.name) (escape e.cat) e.ph (ts_string e.ts) e.pid e.tid);
  if e.ph = 'X' then Buffer.add_string b ",\"dur\":0";
  (match e.id with Some id -> Buffer.add_string b (Printf.sprintf ",\"id\":%d" id) | None -> ());
  (* bp:"e" binds the arrow head to the enclosing slice, not the next one. *)
  if e.ph = 'f' then Buffer.add_string b ",\"bp\":\"e\"";
  (match e.arg with
  | Some (k, raw) -> Buffer.add_string b (Printf.sprintf ",\"args\":{\"%s\":%s}" (escape k) raw)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

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
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i (_, e) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (ev_json e))
    sorted;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"";
  List.iter (fun (k, raw) -> Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" (escape k) raw)) extra;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

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
        {
          name = "process_name"; cat = "__metadata"; ph = 'M'; ts = 0; pid; tid = 0; id = None;
          arg = Some ("name", Printf.sprintf "\"%s\"" (escape owner));
        };
      let tid = ref 0 in
      let new_track name =
        incr tid;
        emit
          {
            name = "thread_name"; cat = "__metadata"; ph = 'M'; ts = 0; pid; tid = !tid; id = None;
            arg = Some ("name", Printf.sprintf "\"%s\"" (escape name));
          };
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
          if t1 = t0 then
            emit { name; cat = "op"; ph = 'X'; ts = t0; pid; tid; id = None; arg = None }
          else begin
            emit { name; cat = "op"; ph = 'B'; ts = t0; pid; tid; id = None; arg = None };
            emit { name; cat = "op"; ph = 'E'; ts = t1; pid; tid; id = None; arg = None }
          end;
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
                if iv.Engine.Span.t1 = iv.Engine.Span.t0 then
                  emit
                    {
                      name; cat = cname; ph = 'X'; ts = iv.Engine.Span.t0; pid; tid; id = None;
                      arg = None;
                    }
                else begin
                  emit
                    {
                      name; cat = cname; ph = 'B'; ts = iv.Engine.Span.t0; pid; tid; id = None;
                      arg = None;
                    };
                  emit
                    {
                      name; cat = cname; ph = 'E'; ts = iv.Engine.Span.t1; pid; tid; id = None;
                      arg = None;
                    }
                end)
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
      let id = Some !arrow_id in
      match latest_opened_before w.Engine.Span.wire_src w.Engine.Span.wire_t0 with
      | None -> () (* unattributed source: nothing to hang the arrow on *)
      | Some (sop, spid, stid) ->
          let sclosed = Option.get sop.Engine.Span.closed_at in
          let ts_s =
            max sop.Engine.Span.opened_at (min w.Engine.Span.wire_t0 sclosed)
          in
          emit
            {
              name = w.Engine.Span.wire_label; cat = "flow"; ph = 's'; ts = ts_s; pid = spid;
              tid = stid; id; arg = None;
            };
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
                  emit
                    {
                      name = w.Engine.Span.wire_label; cat = "flow"; ph = 'f'; ts = ts_f;
                      pid = dpid; tid = dtid; id; arg = None;
                    })))
    (Engine.Span.wire_events spans);
  render ~extra (List.rev !events)

(* ---------- validator ---------- *)

(* A minimal recursive-descent JSON reader: enough to check anything
   this exporter can emit, and to reject tampered files. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected '%c' at offset %d" c !pos))
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at offset %d" !pos))
  in
  let string_tok () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then raise (Bad "unterminated escape");
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
               if !pos + 4 >= n then raise (Bad "bad \\u escape");
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex) with _ -> raise (Bad "bad \\u escape")
               in
               (* ASCII subset is all we ever emit. *)
               if code < 128 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?';
               pos := !pos + 4
           | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number_tok () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    if !pos = start then raise (Bad (Printf.sprintf "expected number at offset %d" start));
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> raise (Bad (Printf.sprintf "bad number at offset %d" start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_tok () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> raise (Bad (Printf.sprintf "expected ',' or '}' at offset %d" !pos))
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> raise (Bad (Printf.sprintf "expected ',' or ']' at offset %d" !pos))
          in
          Arr (elems [])
        end
    | Some '"' -> Str (string_tok ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number_tok ())
    | None -> raise (Bad "unexpected end of input")
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at offset %d" !pos));
  v

let field obj k = match obj with Obj kvs -> List.assoc_opt k kvs | _ -> None

(* Structural validation: well-formed JSON, a traceEvents array whose
   events carry the required fields, globally monotone ts, balanced
   B/E per (pid, tid) with an empty stack at the end, and flow arrows
   ('s'/'f') carrying numeric ids with every head ('f') preceded by its
   tail ('s'). A tail with no head is legal — that is how a dropped
   frame renders. *)
let validate text =
  try
    let root = parse_json text in
    let events =
      match field root "traceEvents" with
      | Some (Arr evs) -> evs
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
        let str k =
          match field e k with
          | Some (Str s) -> s
          | _ -> raise (Bad (Printf.sprintf "event %d: missing string %s" !count k))
        in
        let num k =
          match field e k with
          | Some (Num f) -> f
          | _ -> raise (Bad (Printf.sprintf "event %d: missing number %s" !count k))
        in
        let name = str "name" in
        let ph = str "ph" in
        let ts = num "ts" in
        let pid = int_of_float (num "pid") in
        let tid = int_of_float (num "tid") in
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
              match field e "id" with
              | Some (Num f) -> int_of_float f
              | _ -> raise (Bad (Printf.sprintf "event %d (%s): flow event without id" !count name))
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
  with
  | Bad why -> Error why
  | Not_found -> Error "malformed object"
