(** Search-telemetry sink: one JSON object per line (JSONL).

    The search loop records one object per iteration (queue depth, best
    peak and latency so far, its accounting table's counters and
    per-stage seconds, pool busy fractions, …); each record
    is flushed as it is written, so an interrupted run keeps every
    completed iteration.  {!read} parses a file back for analysis and
    for the round-trip tests. *)

type t

(** Open (truncating) a JSONL file for writing. *)
val create : string -> t

val path : t -> string

(** Append one record as a single line and flush.  No-op after
    {!close}. *)
val record : t -> (string * Json.t) list -> unit

(** Records written so far. *)
val count : t -> int

(** Close the underlying channel (idempotent). *)
val close : t -> unit

(** Parse a JSONL file back into its records (empty lines skipped).
    Raises {!Json.Parse_error} on a malformed line. *)
val read : string -> Json.t list
