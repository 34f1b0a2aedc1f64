(* Tests for histograms, table rendering helpers and the JSON module. *)

let check_int = Alcotest.(check int)

let test_histogram_empty () =
  let h = Metrics.Histogram.create () in
  check_int "count" 0 (Metrics.Histogram.count h);
  check_int "p99" 0 (Metrics.Histogram.p99 h);
  Alcotest.(check (float 0.0)) "mean" 0. (Metrics.Histogram.mean h)

let test_histogram_single () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.add h 1234;
  check_int "count" 1 (Metrics.Histogram.count h);
  check_int "min" 1234 (Metrics.Histogram.min h);
  check_int "max" 1234 (Metrics.Histogram.max h);
  check_int "p50 = only sample" 1234 (Metrics.Histogram.p50 h)

let test_histogram_exact_small () =
  (* Values below 32 are recorded exactly. *)
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.add h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check_int "p50" 5 (Metrics.Histogram.quantile h 0.5);
  check_int "p100" 10 (Metrics.Histogram.quantile h 1.0)

let test_histogram_precision =
  QCheck.Test.make ~name:"histogram quantile within 1/32 relative error" ~count:300
    QCheck.(int_range 1 1_000_000_000)
    (fun v ->
      let h = Metrics.Histogram.create () in
      Metrics.Histogram.add h v;
      let q = Metrics.Histogram.p50 h in
      let err = abs (q - v) in
      (* Bucket width at v is at most v/32 + 1. *)
      err <= (v / 32) + 1)

let test_histogram_mean_merge () =
  let a = Metrics.Histogram.create () in
  let b = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.add a) [ 100; 200 ];
  List.iter (Metrics.Histogram.add b) [ 300; 400 ];
  Metrics.Histogram.merge a b;
  check_int "merged count" 4 (Metrics.Histogram.count a);
  Alcotest.(check (float 0.01)) "merged mean" 250. (Metrics.Histogram.mean a);
  check_int "merged max" 400 (Metrics.Histogram.max a);
  check_int "merged min" 100 (Metrics.Histogram.min a)

let test_histogram_clear () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.add h 42;
  Metrics.Histogram.clear h;
  check_int "count after clear" 0 (Metrics.Histogram.count h);
  Metrics.Histogram.add h 7;
  check_int "usable after clear" 7 (Metrics.Histogram.p50 h)

let test_histogram_negative_clamped () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.add h (-5);
  check_int "clamped to zero" 0 (Metrics.Histogram.min h)

let test_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 10_000_000))
    (fun samples ->
      let h = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.add h) samples;
      let q25 = Metrics.Histogram.quantile h 0.25 in
      let q50 = Metrics.Histogram.quantile h 0.5 in
      let q99 = Metrics.Histogram.quantile h 0.99 in
      q25 <= q50 && q50 <= q99)

(* --- to_buckets / merge properties (Demitrace exporters read the
   distribution through to_buckets, so its invariants matter) --- *)

let test_to_buckets_sums_to_count =
  QCheck.Test.make ~name:"to_buckets counts sum to count, bounds ascending" ~count:200
    QCheck.(list (int_range 0 100_000_000))
    (fun samples ->
      let h = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.add h) samples;
      let buckets = Metrics.Histogram.to_buckets h in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
      let bounds = List.map fst buckets in
      total = Metrics.Histogram.count h
      && List.for_all (fun (_, n) -> n > 0) buckets
      && bounds = List.sort_uniq compare bounds)

let test_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:100
    QCheck.(triple (list (int_range 0 1_000_000)) (list (int_range 0 1_000_000))
              (list (int_range 0 1_000_000)))
    (fun (xs, ys, zs) ->
      let fill samples =
        let h = Metrics.Histogram.create () in
        List.iter (Metrics.Histogram.add h) samples;
        h
      in
      (* (x <- y) <- z versus x <- (y <- z), compared through the full
         observable surface: buckets, count, min, max. *)
      let left = fill xs in
      Metrics.Histogram.merge left (fill ys);
      Metrics.Histogram.merge left (fill zs);
      let yz = fill ys in
      Metrics.Histogram.merge yz (fill zs);
      let right = fill xs in
      Metrics.Histogram.merge right yz;
      Metrics.Histogram.to_buckets left = Metrics.Histogram.to_buckets right
      && Metrics.Histogram.count left = Metrics.Histogram.count right
      && Metrics.Histogram.min left = Metrics.Histogram.min right
      && Metrics.Histogram.max left = Metrics.Histogram.max right)

let test_registry_kinds_and_order () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.incr reg "b/ops";
  Metrics.Registry.add reg "b/ops" 2;
  Metrics.Registry.set reg "a/frames" 7;
  Metrics.Registry.observe reg "c/rtt" 640;
  Alcotest.(check (option int)) "counter value" (Some 3) (Metrics.Registry.value reg "b/ops");
  Alcotest.(check (option int)) "histograms have no counter value" None
    (Metrics.Registry.value reg "c/rtt");
  Alcotest.(check (list string))
    "names sorted regardless of registration order"
    [ "a/frames"; "b/ops"; "c/rtt" ]
    (Metrics.Registry.sorted_names reg);
  Alcotest.check_raises "counter/histogram kind mismatch"
    (Invalid_argument "Registry: b/ops is a counter") (fun () ->
      ignore (Metrics.Registry.histogram reg "b/ops"));
  Alcotest.check_raises "histogram/counter kind mismatch"
    (Invalid_argument "Registry: c/rtt is a histogram") (fun () ->
      ignore (Metrics.Registry.counter reg "c/rtt"))

let test_cells () =
  Alcotest.(check string) "ns" "640ns" (Metrics.Table.cell_ns 640);
  Alcotest.(check string) "us" "5.30us" (Metrics.Table.cell_ns 5_300);
  Alcotest.(check string) "int" "12" (Metrics.Table.cell_i 12);
  Alcotest.(check string) "float" "3.14" (Metrics.Table.cell_f 3.14159)

(* --- Metrics.Json --- *)

module Json = Metrics.Json

let json_testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let parses what text expected =
  Alcotest.(check (result json_testable string)) what (Ok expected) (Json.parse text)

let rejects what text =
  match Json.parse text with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "%s: accepted %S as %s" what text (Json.to_string v)

(* Each case is one an earlier hand-rolled reader got wrong, or a
   malformed document the strict reader must refuse. *)
let test_json_strict () =
  rejects "an unchecked 4-byte skip read txyz as true" {|{"a":txyz}|};
  parses "\\r decodes to CR, not r" {|{"a":"x\ry"}|} (Json.Obj [ ("a", Json.Str "x\ry") ]);
  parses "\\u0041 decodes to A" {|"\u0041"|} (Json.Str "A");
  parses "\\u escapes decode to UTF-8" {|"\u00e9\ud83d\ude00"|}
    (Json.Str "\xc3\xa9\xf0\x9f\x98\x80");
  rejects "missing colon" {|{"a" 1}|};
  rejects "inf is not a JSON number" {|{"a":inf}|};
  rejects "nan is not a JSON number" {|{"a":nan}|};
  rejects "trailing comma in an object" {|{"a":1,}|};
  rejects "trailing comma in an array" {|[1,]|};
  rejects "trailing bytes" {|{"a":1} x|};
  rejects "a second closing brace" {|{"a":1}}|};
  rejects "unterminated string" {|{"a":"abc|};
  rejects "unterminated escape" {|"abc\|};
  rejects "truncated \\u escape" {|"\u00"|};
  rejects "non-hex \\u escape" {|"\u00g1"|};
  rejects "lone surrogate" {|"\udc00"|};
  rejects "unknown escape" {|"\q"|};
  rejects "raw control byte in a string" "\"a\001b\"";
  rejects "leading zero" "01";
  rejects "bare fraction" ".5";
  rejects "empty fraction" "1.";
  rejects "leading plus" "+1";
  rejects "overflowing exponent" "1e999";
  rejects "empty input" "";
  parses "number kinds" {| [0, -0, 12, -3.5, 1e3, 2E-2, 4611686018427387904] |}
    (Json.Arr
       [
         Json.Int 0; Json.Int 0; Json.Int 12; Json.Float (-3.5); Json.Float 1000.; Json.Float 0.02;
         Json.Float 4611686018427387904.;
       ]);
  parses "whitespace and empty containers" " { \"a\" : [ ] , \"b\" : { } } \n"
    (Json.Obj [ ("a", Json.Arr []); ("b", Json.Obj []) ])

let test_json_non_finite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Arr [ Json.Float f ]) with
      | s -> Alcotest.failf "printed a non-finite float as %s" s
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ]

let json_gen =
  let open QCheck.Gen in
  let byte =
    let special = [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\000'; '\031'; '\127'; '\128'; '\255' ] in
    oneof [ oneofl special; char ]
  in
  let str = string_size ~gen:byte (int_range 0 8) in
  let finite f = if Float.is_finite f then f else 0.5 in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ int; small_signed_int; oneofl [ max_int; min_int; 0 ] ]);
        map
          (fun f -> Json.Float f)
          (oneof
             [
               map finite float;
               (* integral values must come back as Float, not Int *)
               map float_of_int small_signed_int;
               oneofl [ -0.; 0.1; 1e300; 5e-324; Float.max_float; 4611686018427387904. ];
             ]);
        map (fun s -> Json.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 4))));
               (1, map (fun l -> Json.Obj l) (list_size (int_range 0 4) (pair str (self (n / 4)))));
             ])

let test_json_roundtrip =
  QCheck.Test.make ~name:"json parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* Follow a path through a parsed document: a number selects an array
   element, anything else an object field. *)
let at path doc =
  List.fold_left
    (fun acc step ->
      Option.bind acc (fun v ->
          match int_of_string_opt step with
          | Some i -> Option.bind (Json.to_list v) (fun l -> List.nth_opt l i)
          | None -> Json.member step v))
    (Some doc) path

let parsed what text =
  match Json.parse text with Ok v -> v | Error why -> Alcotest.failf "%s is not JSON: %s" what why

let test_json_lint_report () =
  let odd = "lib/tcp/we\"ird\n.ml" in
  let loc = { Lint.Effects.lpath = odd; lline = 9; lcol = 2 } in
  let hop = { Lint.Effects.hop_loc = loc; hop_what = "Bytes.create" } in
  let message = "calls \"Random.int\"\tin a datapath module" in
  let v =
    { Lint.Rules.path = odd; line = 3; col = 7; rule = "determinism-source"; message;
      chain = [ hop ] }
  in
  let doc = parsed "the dlint report" (Lint.Driver.json_of_violations [ v ]) in
  let str path = Option.bind (at path doc) Json.to_str in
  let int path = Option.bind (at path doc) Json.to_int in
  let first k = [ "violations"; "0"; k ] and first_hop k = [ "violations"; "0"; "chain"; "0"; k ] in
  Alcotest.(check (option int)) "count" (Some 1) (int [ "count" ]);
  Alcotest.(check (option string)) "path with quote and newline" (Some odd) (str (first "path"));
  Alcotest.(check (option int)) "line" (Some 3) (int (first "line"));
  Alcotest.(check (option int)) "col" (Some 7) (int (first "col"));
  Alcotest.(check (option string)) "message" (Some message) (str (first "message"));
  Alcotest.(check (option string)) "hop path" (Some odd) (str (first_hop "path"));
  Alcotest.(check (option int)) "hop line" (Some 9) (int (first_hop "line"));
  Alcotest.(check (option string)) "hop name" (Some "Bytes.create") (str (first_hop "name"))

let test_json_registry () =
  let reg = Metrics.Registry.create () in
  let odd = "host/\"q\"\nframes" and hist = "rtt/\"ns\"" in
  Metrics.Registry.add reg odd 5;
  Metrics.Registry.set reg "a/plain" 2;
  List.iter (Metrics.Registry.observe reg hist) [ 100; 200; 300 ];
  let doc = parsed "the registry JSON" (Metrics.Registry.to_json reg) in
  let int path = Option.bind (at path doc) Json.to_int in
  Alcotest.(check (option int)) "counter with quote and newline" (Some 5) (int [ "counters"; odd ]);
  Alcotest.(check (option int)) "plain counter" (Some 2) (int [ "counters"; "a/plain" ]);
  Alcotest.(check (option int)) "histogram count" (Some 3) (int [ "histograms"; hist; "count" ]);
  Alcotest.(check (option int)) "histogram max" (Some 300) (int [ "histograms"; hist; "max" ]);
  Alcotest.(check (list string))
    "counters name-sorted" [ "a/plain"; odd ]
    (match at [ "counters" ] doc with Some (Json.Obj kvs) -> List.map fst kvs | _ -> [])

let suite =
  [
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram single sample" `Quick test_histogram_single;
    Alcotest.test_case "histogram exact small values" `Quick test_histogram_exact_small;
    QCheck_alcotest.to_alcotest test_histogram_precision;
    Alcotest.test_case "histogram mean/merge" `Quick test_histogram_mean_merge;
    Alcotest.test_case "histogram clear" `Quick test_histogram_clear;
    Alcotest.test_case "histogram clamps negatives" `Quick test_histogram_negative_clamped;
    QCheck_alcotest.to_alcotest test_histogram_quantile_monotone;
    QCheck_alcotest.to_alcotest test_to_buckets_sums_to_count;
    QCheck_alcotest.to_alcotest test_merge_associative;
    Alcotest.test_case "registry kinds and ordering" `Quick test_registry_kinds_and_order;
    Alcotest.test_case "table cell rendering" `Quick test_cells;
    Alcotest.test_case "json parser is strict" `Quick test_json_strict;
    Alcotest.test_case "json refuses non-finite floats" `Quick test_json_non_finite;
    QCheck_alcotest.to_alcotest test_json_roundtrip;
    Alcotest.test_case "json dlint report reads back" `Quick test_json_lint_report;
    Alcotest.test_case "json registry reads back" `Quick test_json_registry;
  ]
