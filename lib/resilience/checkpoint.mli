(** Crash-safe, versioned, fingerprinted state snapshots.

    A checkpoint file is [magic | header | payload] where the header
    records a format version, a caller-supplied 64-bit fingerprint (the
    search digests its hardware model, input graph, mode and
    trajectory-relevant configuration into it) and the payload's length
    and MD5 digest.  {!save} writes to a temporary file in the target
    directory, fsyncs and renames, so a crash mid-write can never leave
    a truncated file under the checkpoint's name, and {!load} verifies
    magic, version, fingerprint and digest before unmarshalling — a
    stale, foreign or corrupted file is an {!Incompatible} error, not
    undefined behaviour.

    The payload goes through [Marshal], so {!load} must be applied at
    the type that was saved; the version number and the fingerprint are
    the guard.  Bump the caller's version whenever the payload type
    changes. *)

(** Raised by {!load} with a human-readable reason: missing file, bad
    magic, version or fingerprint mismatch, truncation or corruption. *)
exception Incompatible of string

(** [save ~path ~version ~fingerprint payload] atomically replaces
    [path] with a snapshot of [payload]. *)
val save : path:string -> version:int -> fingerprint:int64 -> 'a -> unit

(** [load ~path ~version ~fingerprint] restores a payload saved with
    the same version and fingerprint.

    @raise Incompatible on any mismatch or corruption. *)
val load : path:string -> version:int -> fingerprint:int64 -> 'a

(** Does a readable file (compatible or not) exist at [path]? *)
val exists : string -> bool

(** [mkdir_p dir] creates [dir] and any missing parent, like
    [mkdir -p]; an existing directory is left as it is. *)
val mkdir_p : string -> unit
