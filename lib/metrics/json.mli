(** JSON: one value type, one compact printer, one strict parser.

    Every JSON artifact the tree writes — [BENCH_prN.json] records,
    Chrome traces, [demi stats --format json], dlint's report — is built
    as a {!t} and printed by {!to_string}; every gate that reads one back
    goes through {!parse}. No other module escapes JSON strings. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string  (** arbitrary bytes; printed raw except quotes, backslash and controls *)
  | Arr of t list
  | Obj of (string * t) list  (** fields in print order; duplicates are kept *)

val to_string : t -> string
(** Compact layout: [{"k":v,...}], no spaces, no trailing newline. A
    [Float] prints with the fewest of 15/16/17 significant digits that
    read back exactly, and with a ['.'] or exponent even when integral,
    so [parse (to_string v) = Ok v]. Raises [Invalid_argument] on a NaN
    or infinite float. *)

val parse : string -> (t, string) result
(** Strict RFC 8259 recursive descent. Rejects trailing commas, trailing
    bytes, bad literals, malformed numbers, raw control bytes in strings,
    unknown escapes and unpaired surrogates. [\uXXXX] decodes to UTF-8. A
    number without fraction or exponent that fits an [int] is an [Int];
    any other number is a [Float]. *)

val member : string -> t -> t option
(** The first field named [k] of an [Obj]; [None] for a missing field
    or a non-object. *)

val to_int : t -> int option
val to_float : t -> float option
(** An [Int] converts to a float; other values are [None]. *)

val to_str : t -> string option
val to_list : t -> t list option
