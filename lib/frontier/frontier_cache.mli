(** Atomic on-disk persistence for {!Frontier.t} values, keyed by the
    search trajectory fingerprint.

    A cached frontier is valid only for the exact (workload, hardware,
    mode, configuration) combination whose search produced it, so the
    cache key is {!Magis_opt.Search.trajectory_fingerprint} — the same
    digest that guards search checkpoints.  Any drift in the graph, the
    hardware profile or a trajectory-relevant knob changes the key, and
    the stale file simply stops being found.  A file is the frontier
    value itself in {!Magis_resilience.Checkpoint}'s container, trusted
    as a search snapshot is: a file whose header disagrees with its
    name, its format version or its payload's length and digest
    (truncation, corruption, a foreign writer, an older format) loads
    as a miss, never as wrong data.  Which frontiers may be saved at
    all is {!Frontier_build.cacheable}'s rule. *)

(** [path ~dir ~key] — where {!save} puts the frontier for [key]
    (a [frontier-<key>.ckpt] file inside [dir]). *)
val path : dir:string -> key:int64 -> string

(** Atomically write [frontier] for [key], creating [dir] (and parents)
    as needed. *)
val save : dir:string -> key:int64 -> Frontier.t -> unit

(** The frontier previously saved for [key], or [None] when the file is
    missing, stale, foreign or corrupt.  Points and counters round-trip
    exactly. *)
val load : dir:string -> key:int64 -> Frontier.t option
