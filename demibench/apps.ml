(* Wrapper over the apps library for the reused raw-stack world: framing,
   the TxnStore handler and the schedule generator are timed as ledger
   sections; every reply a client extracts goes to the reply model. *)

module Orig = Demibench_orig.Apps
include Orig

module Framing = struct
  include Orig.Framing

  let encode s = Ledger.timed1 Ledger.framing_encode Orig.Framing.encode s

  let encode_ctx ~req ~msg ~parent ~hop s =
    let p = Ledger.enter Ledger.framing_encode in
    let r = Orig.Framing.encode_ctx ~req ~msg ~parent ~hop s in
    Ledger.leave p;
    r

  let feed acc s = Ledger.timed2 Ledger.framing_decode Orig.Framing.feed acc s

  let next acc =
    let r = Ledger.timed1 Ledger.framing_decode Orig.Framing.next acc in
    (match r with
    | Some reply ->
        let p = Ledger.enter Ledger.bench_check in
        Txncheck.on_reply reply;
        Ledger.leave p
    | None -> ());
    r
end

module Txnstore = struct
  include Orig.Txnstore

  let handle_request ~store msg =
    let p = Ledger.enter Ledger.app_txnstore in
    let r = Orig.Txnstore.handle_request ~store msg in
    Ledger.leave p;
    r
end

module Loadgen = struct
  include Orig.Loadgen

  (* The benchmark, not the world, seeds the schedule. *)
  let seed = ref 1

  let plan ~prng:_ ~rate_per_sec ~keys ~theta ~get_ratio ~start_ns =
    Orig.Loadgen.plan
      ~prng:(Engine.Prng.create (Int64.of_int !seed))
      ~rate_per_sec ~keys ~theta ~get_ratio ~start_ns

  let next pl =
    Ledger.begin_measure Ledger.driver_other;
    let o = Ledger.timed1 Ledger.loadgen_next Orig.Loadgen.next pl in
    Ledger.timed1 Ledger.bench_check Txncheck.on_issue o;
    o

  let encode_request target ~kind ~key ~value =
    let p = Ledger.enter Ledger.app_txnstore in
    let r = Orig.Loadgen.encode_request target ~kind ~key ~value in
    Ledger.leave p;
    r
end
