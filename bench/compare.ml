(* `bench -- compare`: the benchmark-artifact guard (PR 10).

   Every BENCH_pr<N>.json committed at the repo root is a claim about
   the tree at that PR; nothing re-checked them after commit. This pass
   loads them all, validates each against the schema its family
   promises (wallclock records from PRs 3/6, scale records from PR 8
   on), re-verifies the internal exactness invariants (attribution
   bands sum, completed = ops, zero gc-poll violations, zero pool
   errors), and then compares consecutive artifacts of the same family
   and mode at matching sweep points: a latency quantile or GC volume
   that grew by more than [regress_factor] between two committed
   records is flagged as a regression and fails the run.

   Each family's schema lives here and nowhere else: `bench --
   wallclock` and `bench -- scale` run [check_written] on the file they
   just wrote. *)

module Json = Metrics.Json

let fnum j k = Option.bind (Json.member k j) Json.to_float
let fint j k = Option.bind (Json.member k j) Json.to_int
let fstr j k = Option.bind (Json.member k j) Json.to_str
let farr j k = Option.bind (Json.member k j) Json.to_list

(* ---------- artifact discovery ---------- *)

type artifact = { path : string; pr : int; doc : Json.t }

let pr_of_name name =
  (* BENCH_pr<N>.json, nothing else *)
  let pre = "BENCH_pr" and suf = ".json" in
  let lp = String.length pre and ls = String.length suf and ln = String.length name in
  if ln > lp + ls && String.sub name 0 lp = pre && String.sub name (ln - ls) ls = suf then
    int_of_string_opt (String.sub name lp (ln - lp - ls))
  else None

let read_json path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse s

let load_artifacts dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         Option.map (fun pr -> (Filename.concat dir name, pr)) (pr_of_name name))
  |> List.sort (fun (_, a) (_, b) -> compare a b)
  |> List.map (fun (path, pr) ->
         match read_json path with
         | Ok doc -> { path; pr; doc }
         | Error e ->
             Printf.eprintf "compare: %s is not valid JSON: %s\n%!" path e;
             exit 1)

(* ---------- per-artifact schema + invariant checks ---------- *)

let failures = ref 0

let flag path fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "  FAIL %s: %s\n%!" path msg)
    fmt

let require path doc keys =
  List.iter
    (fun k -> if Json.member k doc = None then flag path "missing key \"%s\"" k)
    keys

let scale_point_keys =
  [
    "conns"; "client_stacks"; "ops"; "completed"; "wall_s"; "gc_minor_words";
    "gc_major_words"; "gc_alloc_mb"; "p50_ns"; "p99_ns"; "p999_ns"; "reconnects";
    "frames"; "polls"; "steady_polls"; "gc_poll_violations"; "conns_peak";
    "tcb_capacity"; "pool_errors";
  ]

(* Keys that arrived with later PRs: Demiflight's quantile/attribution
   extensions in PR 9, Demifleet's per-hop attribution in PR 10. *)
let scale_point_keys_pr9 = [ "p90_ns"; "lat_min_ns"; "lat_max_ns"; "attribution"; "slo"; "flight" ]
let band_keys = [ "band"; "cut_ns"; "ops"; "queue_ns"; "wire_ns"; "rest_ns"; "total_ns" ]
let band_keys_pr10 = [ "to_srv_ns"; "from_srv_ns" ]

let check_band path a band =
  require path band band_keys;
  if a.pr >= 10 then require path band band_keys_pr10;
  (match (fint band "queue_ns", fint band "wire_ns", fint band "rest_ns", fint band "total_ns") with
  | Some q, Some w, Some r, Some t ->
      if q + w + r <> t then
        flag path "band %s: queue+wire+rest = %d, total = %d"
          (Option.value ~default:"?" (fstr band "band"))
          (q + w + r) t
  | _ -> flag path "band with non-numeric attribution fields");
  match (fint band "queue_ns", fint band "to_srv_ns", fint band "from_srv_ns", fint band "total_ns") with
  | Some q, Some ts, Some fs, Some t ->
      if q + ts + fs <> t then
        flag path "band %s: queue+to_srv+from_srv = %d, total = %d"
          (Option.value ~default:"?" (fstr band "band"))
          (q + ts + fs) t
  | _ -> () (* pre-PR-10 artifacts carry no per-hop split *)

let check_scale_point path a point =
  require path point scale_point_keys;
  if a.pr >= 9 then require path point scale_point_keys_pr9;
  let conns = Option.value ~default:0 (fint point "conns") in
  let must key ok why =
    match fint point key with
    | Some v when not (ok v) -> flag path "conns=%d: %s = %d (%s)" conns key v why
    | _ -> ()
  in
  (match (fint point "ops", fint point "completed") with
  | Some ops, Some completed when ops <> completed ->
      flag path "conns=%d: completed %d of %d ops" conns completed ops
  | _ -> ());
  must "steady_polls" (fun v -> v > 0) "the gc-budget oracle measured no steady poll";
  must "gc_poll_violations" (( = ) 0) "steady polls must allocate nothing";
  must "pool_errors" (( = ) 0) "the pool sanitizer caught errors";
  match Option.bind (Json.member "attribution" point) (fun att -> farr att "bands") with
  | Some bands -> List.iter (check_band path a) bands
  | None -> if a.pr >= 9 then flag path "attribution.bands missing"

let check_scale a =
  require a.path a.doc
    [ "pr"; "mode"; "workload"; "sweep"; "attempted"; "largest_sustained"; "limiting_factor"; "churn_10k" ];
  match farr a.doc "sweep" with
  | Some points when points <> [] -> List.iter (check_scale_point a.path a) points
  | Some [] -> flag a.path "empty sweep"
  | _ -> flag a.path "sweep is not an array"

(* Records whose "pr" is 6 or later also carry per-op GC figures
   against the Demialloc baseline. *)
let wallclock_keys = [ "pr"; "mode"; "samples"; "baseline"; "echo_us_per_op"; "speedup_churn" ]
let wallclock_keys_pr6 = [ "echo_gc_kb_per_op"; "gc_reduction_echo"; "gc_reduction_churn" ]
let sample_keys = [ "wall_s"; "events_per_sec"; "frames_per_sec"; "gc_alloc_mb"; "ops" ]

let check_wallclock a =
  require a.path a.doc wallclock_keys;
  if a.pr >= 6 then require a.path a.doc wallclock_keys_pr6;
  match Json.member "samples" a.doc with
  | Some samples ->
      List.iter
        (fun name ->
          match Json.member name samples with
          | Some s -> require a.path s sample_keys
          | None -> flag a.path "samples.%s missing" name)
        [ "echo"; "churn" ]
  | None -> ()

let family a = if Json.member "sweep" a.doc <> None then `Scale else `Wallclock

let check_artifact a =
  (match fint a.doc "pr" with
  | Some pr when pr = a.pr -> ()
  | Some pr -> flag a.path "file says pr %d, name says pr %d" pr a.pr
  | None -> flag a.path "missing \"pr\"");
  match family a with `Scale -> check_scale a | `Wallclock -> check_wallclock a

(* ---------- consecutive-artifact regression comparison ---------- *)

let regress_factor = 1.5

let compare_scale_points path_old path_new old_pt new_pt =
  let conns = Option.value ~default:0 (fint new_pt "conns") in
  List.iter
    (fun key ->
      match (fnum old_pt key, fnum new_pt key) with
      | Some o, Some n when o > 0. && n > o *. regress_factor ->
          flag path_new "conns=%d: %s regressed %.0f -> %.0f (>%.1fx vs %s)" conns key o n
            regress_factor path_old
      | _ -> ())
    [ "p50_ns"; "p99_ns"; "p999_ns"; "gc_alloc_mb" ]

let compare_pair older newer =
  let sample doc name = Option.bind (Json.member "samples" doc) (Json.member name) in
  match (fstr older.doc "mode", fstr newer.doc "mode") with
  | Some mo, Some mn when mo <> mn ->
      Printf.printf "  skip %s vs %s: modes differ (%s vs %s)\n%!" older.path newer.path mo mn
  | _ -> (
      match (family older, family newer, farr older.doc "sweep", farr newer.doc "sweep") with
      | `Scale, `Scale, Some old_pts, Some new_pts ->
          List.iter
            (fun np ->
              match fint np "conns" with
              | None -> ()
              | Some c -> (
                  match List.find_opt (fun op -> fint op "conns" = Some c) old_pts with
                  | Some op -> compare_scale_points older.path newer.path op np
                  | None -> ()))
            new_pts
      | `Wallclock, `Wallclock, _, _ ->
          List.iter
            (fun name ->
              match (sample older.doc name, sample newer.doc name) with
              | Some os, Some ns -> (
                  match (fnum os "gc_alloc_mb", fnum ns "gc_alloc_mb") with
                  | Some o, Some n when o > 0. && n > o *. regress_factor ->
                      flag newer.path "%s gc_alloc_mb regressed %.1f -> %.1f vs %s" name o n
                        older.path
                  | _ -> ())
              | _ -> ())
            [ "echo"; "churn" ]
      | _ -> () (* families changed between PRs; nothing comparable *))

let rec consecutive f = function
  | a :: (b :: _ as rest) ->
      f a b;
      consecutive f rest
  | _ -> ()

(* ---------- driver ---------- *)

(* Schema-check one artifact; true when it passed. *)
let checked a =
  let before = !failures in
  check_artifact a;
  if !failures = before then
    Printf.printf "  %s (pr %d, %s family): schema OK\n%!" a.path a.pr
      (match family a with `Scale -> "scale" | `Wallclock -> "wallclock");
  !failures = before

(* The artifact a bench run just wrote, under any file name: its own
   "pr" field stands in for the one a BENCH_pr<N>.json name carries.
   Exits 1 unless it passes its family schema. *)
let check_written path =
  let ok =
    match read_json path with
    | Error e ->
        flag path "not valid JSON: %s" e;
        false
    | Ok doc -> checked { path; pr = Option.value ~default:0 (fint doc "pr"); doc }
  in
  if not ok then exit 1

let run ?(dir = ".") () =
  let artifacts = load_artifacts dir in
  if artifacts = [] then begin
    Printf.eprintf "compare: no BENCH_pr*.json found under %s\n%!" dir;
    exit 1
  end;
  Printf.printf "bench compare: %d artifact(s)\n%!" (List.length artifacts);
  List.iter (fun a -> ignore (checked a)) artifacts;
  let by_family fam = List.filter (fun a -> family a = fam) artifacts in
  consecutive compare_pair (by_family `Scale);
  consecutive compare_pair (by_family `Wallclock);
  if !failures > 0 then begin
    Printf.printf "bench compare: %d failure(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf "bench compare: all artifacts consistent, no regressions flagged\n%!"
