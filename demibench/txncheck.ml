(* The benchmark's own model of every TxnStore reply on txn-many-conns.

   The raw-stack world (bench/scale.ml, reused unchanged) discards
   replies, so the check sits in the wrapper modules around it: every
   request a client connection sends is decoded at [Tcp.Stack.tcp_send]
   and queued on that connection; replies come back in request order on
   a TCP stream, so each framed reply the client extracts is paired with
   the head of its connection's queue.

   Every PUT writes version 1 of the same value, so the model is exact:
   - a PUT reply is the one-byte ack;
   - a GET reply is a miss or (version 1, that value);
   - a GET sent after a PUT of its key was acked must hit;
   - a GET answered while no PUT of its key was ever sent must miss.
   Anything else, and any reply with no request behind it, is wrong. *)

module Orig = Demibench_orig
module Heap = Orig.Memory.Heap
module Stack = Orig.Tcp.Stack

type expect = { op : int; key : string; must_hit : bool; seq : int }

let value = String.make 32 'v'
let queues : (int, expect Queue.t) Hashtbl.t = Hashtbl.create 4096
let sent_put : (string, unit) Hashtbl.t = Hashtbl.create 1024
let acked_put : (string, unit) Hashtbl.t = Hashtbl.create 1024
let replies = ref 0
let wrong = ref 0
let first_error = ref ""

(* Open-loop honesty: the scheduled arrival of op [seq] (the causal
   request id scale.ml stamps, 1-based) and the virtual clock, so the
   delay from arrival to socket write is measured per op. *)
let clock = ref (fun () -> 0)
let at_ns = ref (Array.make 0 0)
let issued = ref 0
let gen_late = Metrics.Hdr.create ()
let lat = Metrics.Hdr.create ()
let frame_bytes = ref 0
let first_at = ref 0
let last_reply_ns = ref 0
let backlog = Backlog.create ()

let on_issue (o : Orig.Apps.Loadgen.op) =
  let n = !issued in
  if n = 0 then first_at := o.Orig.Apps.Loadgen.at_ns;
  if n >= Array.length !at_ns then begin
    let bigger = Array.make (max 1024 (2 * n)) 0 in
    Array.blit !at_ns 0 bigger 0 n;
    at_ns := bigger
  end;
  (!at_ns).(n) <- o.Orig.Apps.Loadgen.at_ns;
  issued := n + 1;
  Backlog.sample backlog (!issued - !replies)

(* The client connection whose bytes scale.ml's poll loop most recently
   read: it drains a connection with [tcp_recv] and then extracts its
   frames before touching any other connection. *)
let last_recv = ref (-1)

let reset () =
  Hashtbl.reset queues;
  Hashtbl.reset sent_put;
  Hashtbl.reset acked_put;
  replies := 0;
  wrong := 0;
  first_error := "";
  last_recv := -1;
  issued := 0;
  Metrics.Hdr.clear gen_late;
  Metrics.Hdr.clear lat;
  frame_bytes := 0;
  first_at := 0;
  last_reply_ns := 0;
  Backlog.reset backlog

let conn_key c = ((Stack.conn_local c).Net.Addr.ip lsl 24) lor Stack.conn_id c

let fail msg =
  incr wrong;
  if !first_error = "" then first_error := msg

let on_connect c = Hashtbl.replace queues (conn_key c) (Queue.create ())

(* Requests: [u32 len][ctx][u8 op][u16 klen][key]... (Apps.Txnstore). *)
let on_send c bufs =
  match Hashtbl.find queues (conn_key c) with
  | exception Not_found -> () (* a server connection *)
  | q ->
      List.iter
        (fun buf ->
          let d = Heap.data buf and o = Heap.offset buf + Orig.Apps.Framing.hdr_size in
          let op = Net.Wire.get_u8 d o in
          let klen = Net.Wire.get_u16 d (o + 1) in
          let key = Bytes.sub_string d (o + 3) klen in
          let seq = Net.Wire.get_u32 d (Heap.offset buf + 4) in
          if seq < 1 || seq > !issued then fail "request with an unknown sequence number"
          else Metrics.Hdr.add gen_late (!clock () - (!at_ns).(seq - 1));
          if op = 2 then Hashtbl.replace sent_put key ();
          Queue.add { op; key; must_hit = op = 1 && Hashtbl.mem acked_put key; seq } q)
        bufs

let on_recv c = last_recv := conn_key c

let on_reply reply =
  match Hashtbl.find queues !last_recv with
  | exception Not_found -> () (* a request the server extracted *)
  | q -> (
      incr replies;
      last_reply_ns := !clock ();
      match Queue.take_opt q with
      | None -> fail "reply with no request in flight"
      | Some e ->
          if e.seq >= 1 && e.seq <= !issued then
            Metrics.Hdr.add lat (!last_reply_ns - (!at_ns).(e.seq - 1));
          if e.op = 2 then begin
            if reply <> "\x01" then fail ("PUT " ^ e.key ^ " not acked");
            Hashtbl.replace acked_put e.key ()
          end
          else if reply = "\x00" then begin
            if e.must_hit then fail ("GET " ^ e.key ^ " missed an acked PUT")
          end
          else if
            not
              (Hashtbl.mem sent_put e.key
              && Orig.Apps.Txnstore.parse_get_response reply = Some (1, value))
          then fail ("GET " ^ e.key ^ " returned a value never written"))
