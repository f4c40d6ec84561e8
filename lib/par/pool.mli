(** A fixed-size pool of OCaml 5 domains with a deterministic parallel
    map.

    The pool exists to fan the per-candidate (hash → reschedule →
    simulate) pipeline of the search loop across cores without changing
    its results: {!map_result} always returns results in input order,
    so callers that merge sequentially see the same sequence as a
    serial run.

    A pool of size [<= 1] spawns no domains at all and executes tasks
    inline on the calling domain, in input order — the exact legacy
    serial path. *)

type t

(** [create n] starts a pool of [n] worker domains ([n <= 1] → inline
    execution, no domains). *)
val create : int -> t

(** Number of workers (1 for an inline pool). *)
val size : t -> int

(** [map_result pool f xs] applies [f] to every element of [xs],
    possibly in parallel, and returns the results in input order.
    Failures are isolated per input: element [i] is [Error (e, bt)]
    when [f xs.(i)] raised [e] at backtrace [bt], and every other
    element is computed normally.  The supervised search builds its
    quarantine/retry logic on this.  Must not be called after
    {!shutdown}, nor from inside a task of the same pool. *)
val map_result :
  t ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn * Printexc.raw_backtrace) result array

(** Cumulative seconds each worker has spent executing tasks, one cell
    per worker.  For an inline pool this is the single-cell task time of
    the calling domain. *)
val busy_time : t -> float array

(** Stop the workers and join their domains.  Idempotent.  Pending work
    is drained before the workers exit. *)
val shutdown : t -> unit
