(* One JSON value type, one compact printer, one strict parser. Every
   artifact the tree writes (bench records, Chrome traces, `demi stats
   --format json`, dlint's report) is built as a [t] and printed here,
   and every gate that reads one back parses it here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printer ---------- *)

let add_string b s =
  Buffer.add_char b '"';
  if String.for_all (fun c -> c >= ' ' && c <> '"' && c <> '\\') s then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

(* The shortest of 15, 16 or 17 significant digits that reads back as
   the same float; an integral float keeps a '.' so it parses back as a
   [Float], not an [Int]. *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite float";
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let write_seq b op cl item xs =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    xs;
  Buffer.add_char b cl

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> add_string b s
  | Arr vs -> write_seq b '[' ']' (write b) vs
  | Obj kvs ->
      write_seq b '{' '}'
        (fun (k, v) ->
          add_string b k;
          Buffer.add_char b ':';
          write b v)
        kvs

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---------- parser ---------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* The byte a one-character escape stands for. *)
let unescape = function
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | c -> c

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let eat c = !pos < n && Char.equal s.[!pos] c && (incr pos; true) in
  let expect c = if not (eat c) then fail "expected '%c' at offset %d" c !pos in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      incr pos;
      skip_ws ()
    end
  in
  let literal word v =
    let l = String.length word in
    if !pos + l > n || String.sub s !pos l <> word then fail "bad literal at offset %d" !pos;
    pos := !pos + l;
    v
  in
  let hex4 () =
    let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if hex = "" || not (String.for_all is_hex hex) then fail "bad \\u escape at offset %d" !pos;
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  (* A \u escape decodes to UTF-8; a UTF-16 surrogate must come in a
     high-low pair. *)
  let code_point () =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate at offset %d" !pos;
    if hi < 0xD800 || hi > 0xDBFF then hi
    else begin
      expect '\\';
      expect 'u';
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired high surrogate at offset %d" !pos;
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
  in
  let string_tok () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          if e = 'u' then Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          else if String.contains "\"\\/bfnrt" e then Buffer.add_char b (unescape e)
          else fail "bad escape \\%c at offset %d" e (!pos - 1);
          go ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string at offset %d" (!pos - 1)
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* The RFC 8259 grammar: optional minus, then 0 or a digit run with
     no leading zero, optional fraction, optional exponent. An [Int] when
     there is no fraction or exponent and it fits. *)
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail "expected digit at offset %d" !pos
    in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let int_end = !pos in
    if eat '.' then digits ();
    if eat 'e' || eat 'E' then begin
      ignore (eat '+' || eat '-');
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match if !pos = int_end then int_of_string_opt lit else None with
    | Some i -> Int i
    | None ->
        let f = float_of_string lit in
        if not (Float.is_finite f) then fail "number out of range at offset %d" start;
        Float f
  in
  (* The items of an array or object between [op] and [cl]. *)
  let items op cl item =
    expect op;
    skip_ws ();
    if eat cl then []
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        if eat ',' then go (x :: acc)
        else if eat cl then List.rev (x :: acc)
        else fail "expected ',' or '%c' at offset %d" cl !pos
      in
      go []
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' -> Obj (items '{' '}' field)
    | '[' -> Arr (items '[' ']' value)
    | '"' -> Str (string_tok ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail "unexpected '%c' at offset %d" c !pos
  and field () =
    skip_ws ();
    let k = string_tok () in
    skip_ws ();
    expect ':';
    (k, value ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad why -> Error why

(* ---------- accessors ---------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
