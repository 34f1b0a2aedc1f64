type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : Sim.t * Clock.t -> unit Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn sim ?(name = "fiber") fn =
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          let msg =
            Printf.sprintf "fiber %S raised: %s" name (Printexc.to_string e)
          in
          Printexc.raise_with_backtrace (Failure msg) bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  register (fun v -> Effect.Deep.continue k v))
          | Sleep (sim, delay) ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Sim.schedule sim ~delay (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  Sim.schedule sim ~delay:0 (fun () -> Effect.Deep.match_with fn () handler)

(* dlint-allow: transitive-alloc-in-hotpath -- allocates only when another event is due first: then one Sleep effect, its handler closure, a resume closure and its event entry, a scheduling transition; an uncontended sleep fast-forwards the clock in place and allocates nothing (test_engine "uncontended sleeps allocate nothing") *)
let sleep sim delay =
  if not (Sim.fast_forward sim ~delay) then Effect.perform (Sleep (sim, delay))

let yield sim = sleep sim 0
