(** The process-wide SIGINT/SIGTERM handler and its callbacks.

    Signals belong to the process that owns them, not to a search: a
    search stops only when its caller's per-pop poll
    ([Search.config.poll]) says so.  A caller that wants a signal to
    stop its search registers a callback here that raises a flag its
    poll reads — [magis_cli optimize --checkpoint] records the signal,
    the daemon ([Server]) drains.  A search whose poll reads no such
    flag ignores signals.

    The handler is installed once and left installed, so a daemon and
    everything it runs share one disposition and a signal never falls
    through to the default (fatal) behaviour between two searches. *)

(** [on_signal f] registers [f] to run (with the signal number) each
    time SIGINT or SIGTERM arrives, and installs the handler (re-
    installing it if embedding code replaced the disposition).  Returns
    the unregister function.  Callbacks run inside the signal handler
    at an arbitrary safe point: keep them tiny (set a flag, write a
    byte) — exceptions they raise are swallowed.  On platforms without
    these signals the handler is not installed. *)
val on_signal : (int -> unit) -> unit -> unit
