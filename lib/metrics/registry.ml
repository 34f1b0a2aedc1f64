type entry = Counter of int ref | Hist of Histogram.t

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Counter r) -> r
  | Some (Hist _) -> invalid_arg (Printf.sprintf "Registry: %s is a histogram" name)
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.entries name (Counter r);
      r

let histogram t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) -> h
  | Some (Counter _) -> invalid_arg (Printf.sprintf "Registry: %s is a counter" name)
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace t.entries name (Hist h);
      h

let incr t name = incr (counter t name)
let add t name n = counter t name := !(counter t name) + n
let set t name v = counter t name := v
let observe t name v = Histogram.add (histogram t name) v

let value t name =
  match Hashtbl.find_opt t.entries name with Some (Counter r) -> Some !r | _ -> None

(* Name-sorted iteration: registration order is an implementation detail
   of whichever component registered first, but reports and digests must
   not depend on hash-table layout. *)
let sorted_names t = Engine.Det.hashtbl_sorted_keys ~compare:String.compare t.entries

let iter t f =
  List.iter
    (fun name -> match Hashtbl.find_opt t.entries name with Some e -> f name e | None -> ())
    (sorted_names t)

let counters t =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.entries name with
      | Some (Counter r) -> Some (name, !r)
      | _ -> None)
    (sorted_names t)

let histograms t =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.entries name with Some (Hist h) -> Some (name, h) | _ -> None)
    (sorted_names t)

let to_json t =
  let ints kvs = List.map (fun (k, v) -> (k, Json.Int v)) kvs in
  let hist (name, h) =
    ( name,
      Json.Obj
        (ints
           [
             ("count", Histogram.count h); ("p50", Histogram.p50 h); ("p99", Histogram.p99 h);
             ("p999", Histogram.p999 h); ("max", Histogram.max h);
           ]) )
  in
  Json.to_string
    (Json.Obj
       [
         ("counters", Json.Obj (ints (counters t)));
         ("histograms", Json.Obj (List.map hist (histograms t)));
       ])

let dump t =
  (match counters t with
  | [] -> ()
  | cs ->
      let tbl = Table.create ~title:"counters" ~columns:[ "name"; "value" ] in
      List.iter (fun (name, v) -> Table.add_row tbl [ name; Table.cell_i v ]) cs;
      Table.print tbl);
  match histograms t with
  | [] -> ()
  | hs ->
      let tbl =
        Table.create ~title:"histograms"
          ~columns:[ "name"; "count"; "p50"; "p99"; "p999"; "max" ]
      in
      List.iter
        (fun (name, h) ->
          Table.add_row tbl
            [
              name;
              Table.cell_i (Histogram.count h);
              Table.cell_ns (Histogram.p50 h);
              Table.cell_ns (Histogram.p99 h);
              Table.cell_ns (Histogram.p999 h);
              Table.cell_ns (Histogram.max h);
            ])
        hs;
      Table.print tbl
