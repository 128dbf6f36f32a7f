(** Minimal JSON codec for the newline-delimited serve protocol and
    every JSON artifact the process writes (trace exports, flight
    dumps, access logs, bench results).

    The toolchain ships no JSON library, and these need very little: scalars, arrays, objects, and a printer whose output is a
    {e deterministic function of the value} — the service-layer tests
    assert byte-identical response payloads across daemon restarts, so
    object key order is preserved exactly as constructed and floats
    print through one fixed format.

    The parser is a strict recursive-descent reader of a single
    document: trailing garbage, unterminated literals, bare control
    characters in strings, and nesting deeper than {!max_depth} are all
    rejected with a message carrying the byte offset. Numbers without
    [.], [e] or [E] parse as [Int] (falling back to [Float] past
    [max_int]); everything else numeric parses as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order is preserved, duplicates kept *)

exception Parse_error of string
(** Carries ["offset N: <reason>"]. *)

val max_depth : int
(** Nesting cap (64): deeper documents raise {!Parse_error} instead of
    overflowing the stack on adversarial input. *)

val parse : string -> t
(** Raises {!Parse_error}. *)

val parse_result : string -> (t, string) result

val to_string : t -> string
(** One line, no trailing newline. Strings escape the double quote,
    the backslash and control characters (as [\uXXXX] or the short
    forms) and nothing else;
    integral floats print with a trailing [.0] so they re-parse as
    [Float]; non-finite floats raise [Invalid_argument] — encode them
    with {!of_float}. *)

val of_float : float -> t
(** [Float], or the strings ["inf"]/["-inf"]/["nan"] for non-finite
    values, so any float prints as valid JSON. *)

(** {2 Accessors} — shape-checking helpers for the protocol layer. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] and integral [Float] both yield [n]. *)

val to_float : t -> float option
(** [Float f] or [Int n] (as [float n]). *)

val to_bool : t -> bool option
val to_str : t -> string option
