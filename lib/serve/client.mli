(** Blocking client for the optimization service.

    Thin line-framing over a connected socket plus the {!Protocol}
    codec; used by the CLI, the load generator, the chaos harness and
    the tests.  One client = one connection; not thread-safe (give each
    concurrent client its own [t]). *)

type t

(** Connect to a daemon.  [retries] poll the socket for a daemon that
    is still starting up (100 ms apart) before giving up with the
    underlying [Unix.Unix_error]. *)
val connect : ?retries:int -> Protocol.addr -> t

val send : t -> Protocol.command -> unit

(** Send raw bytes verbatim — the chaos harness's garbage generator. *)
val send_raw : t -> string -> unit

(** Next reply line (blocking).  Raises [End_of_file] when the daemon
    closed the connection, {!Protocol.Invalid} /
    {!Magis_obs.Json.Parse_error} on an undecodable line. *)
val recv : t -> Protocol.reply

(** Send an [Optimize] command and pump replies until the terminal one
    for that id ([Result] or [Error]), feeding each [Progress] to
    [on_progress].  Replies for other ids are ignored, so a pipelined
    connection can drive one request at a time per call. *)
val optimize :
  ?on_progress:(Protocol.progress -> unit) ->
  t ->
  Protocol.request ->
  Protocol.reply

(** Send a [Frontier] query and pump replies until its terminal one
    ([Frontier_reply] or [Error]).  A cache hit returns without the
    daemon running any search. *)
val frontier : t -> Protocol.frontier_request -> Protocol.reply

val health : t -> Protocol.health
val metrics_text : t -> string

val close : t -> unit
