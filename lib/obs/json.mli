(** Minimal dependency-free JSON values: emission and strict parsing.

    This is the serialization substrate of the observability subsystem:
    {!Trace} and {!Timeline} render Chrome [trace_event] documents
    through it, {!Metrics} snapshots and {!Profile} run logs are built
    from its values, and the parser lets tests (and callers) validate
    every emitted artifact by reading it back.

    Deliberately small: no streaming, no number-preserving bignums, no
    duplicate-key detection — exactly what the exporters need and
    nothing more.  Integer literals that fit [int] parse as {!Int};
    everything else numeric parses as {!Float}.  Emission never
    produces invalid JSON: strings are escaped, non-finite floats
    become [null], and a finite float always renders with a fractional
    part or exponent so it re-parses as a float. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Raised by {!of_string} with a position-annotated message. *)
exception Parse_error of string

(** Compact (no whitespace) rendering. *)
val to_string : t -> string

(** Nesting-depth cap applied by {!of_string} when none is given: deep
    enough for any artifact this codebase emits, shallow enough that a
    hostile [[[[…] document raises {!Parse_error} long before the
    recursive-descent parser can exhaust the stack. *)
val default_max_depth : int

(** Strict parse of a complete JSON document (trailing garbage is an
    error).  Raises {!Parse_error}.

    The parser is used on adversarial input (the {!Magis_serve} wire
    protocol), so it enforces two resource limits with a structured
    error instead of undefined behaviour: [max_depth] bounds
    list/object nesting (default {!default_max_depth}) and [max_len]
    rejects documents longer than the given byte count before any
    parsing work ([None], the default, accepts any length — large
    trusted artifacts like Chrome traces are parsed back in tests). *)
val of_string : ?max_depth:int -> ?max_len:int -> string -> t

(** Field lookup on an object ([None] on other constructors). *)
val member : string -> t -> t option

val to_int : t -> int option

(** Numeric coercion: accepts {!Int} and {!Float}. *)
val to_float : t -> float option

val to_list : t -> t list option
