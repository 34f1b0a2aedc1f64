(* Wrapper over the tcp library for the reused raw-stack world
   (bench/scale.ml, compiled here unchanged): same names and types, but
   each call into the stack is timed as its ledger section from the
   outside. Disarmed, each wrapper costs one branch. The wrappers also
   record the stacks a round creates (for their counters) and feed the
   reply model ([Txncheck]). *)

module Orig = Demibench_orig.Tcp
include Orig

module Stack = struct
  include Orig.Stack

  let created : Orig.Stack.t list ref = ref []

  let create ?config ?trace ~iface ~heap ~prng ~events () =
    let s = Orig.Stack.create ?config ?trace ~iface ~heap ~prng ~events () in
    created := s :: !created;
    s

  let input s frame =
    Txncheck.frame_bytes := !Txncheck.frame_bytes + String.length frame;
    Ledger.timed2 Ledger.tcp_input Orig.Stack.input s frame

  let flush_acks s = Ledger.timed1 Ledger.tcp_flush_acks Orig.Stack.flush_acks s
  let on_timer s = Ledger.timed1 Ledger.tcp_on_timer Orig.Stack.on_timer s
  let next_timer_ns s = Ledger.timed1 Ledger.tcp_next_timer_ns Orig.Stack.next_timer_ns s

  let tcp_send c ?push_id bufs =
    let p = Ledger.enter Ledger.bench_check in
    Txncheck.on_send c bufs;
    Ledger.leave p;
    let p = Ledger.enter Ledger.tcp_send in
    Orig.Stack.tcp_send c ?push_id bufs;
    Ledger.leave p

  let tcp_recv c =
    Ledger.timed1 Ledger.bench_check Txncheck.on_recv c;
    Ledger.timed1 Ledger.tcp_recv Orig.Stack.tcp_recv c

  let tcp_connect s ~dst =
    let p = Ledger.enter Ledger.tcp_conn_lifecycle in
    let c = Orig.Stack.tcp_connect s ~dst in
    Ledger.leave p;
    Txncheck.on_connect c;
    c

  let tcp_accept l = Ledger.timed1 Ledger.tcp_conn_lifecycle Orig.Stack.tcp_accept l
  let tcp_close c = Ledger.timed1 Ledger.tcp_conn_lifecycle Orig.Stack.tcp_close c
end

module Iface = struct
  include Orig.Iface

  let create ?arp_retry_ns ?mtu ~mac ~ip ~clock ~tx_frame () =
    Txncheck.clock := clock;
    Orig.Iface.create ?arp_retry_ns ?mtu ~mac ~ip ~clock ~tx_frame ()
end
