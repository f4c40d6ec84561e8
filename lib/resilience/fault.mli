(** Deterministic, seeded fault injector.

    The optimizer's resilience machinery (supervised expansion,
    quarantine, retry — see {!Magis_opt.Search}) is only trustworthy if
    it can be exercised against real failures.  This module plants those
    failures on purpose: instrumented *sites* in the cost model, the
    simulator, the simulation cache and the search's candidates call
    {!hit} (or {!cost} for float-valued sites) on every visit, and an
    armed injector fires a planned fault when a site's visit counter reaches a
    planned trigger count.

    Faults are keyed by [(site, visit)], so a plan is fully
    deterministic: the n-th visit of a site fails, every other visit is
    free.  Because a retry of the failed computation advances the
    counter past the trigger, a single planned fault is *transient* —
    the retry succeeds — while a {!burst} of consecutive trigger counts
    models a *persistent* failure that exhausts retries and must be
    quarantined.

    When the injector is disarmed (the default, and the production
    state) a site visit is one atomic load.  The injector is a process
    global shared by all domains; arming it in concurrent tests requires
    the usual care. *)

type kind =
  | Exception  (** raise {!Injected} at the site *)
  | Delay of float  (** sleep this many seconds, then continue *)
  | Nan_cost
      (** corrupt a float-valued site's result to [nan] (control-flow
          sites treat it as a no-op) *)
  | Stall of float
      (** a long sleep modelling a stalled worker; semantically a
          {!Delay}, reported separately in fired-fault logs *)

type spec = {
  site : string;  (** instrumented site name, e.g. ["op_cost"] *)
  at : int;  (** fire on this visit of the site (1-based) *)
  kind : kind;
}

(** Raised by sites where an [Exception] fault fires; carries the site
    name and the visit count. *)
exception Injected of string * int

(** The instrumented sites of this codebase (other components may add
    their own): operator-cost queries, simulator runs, simulation-cache
    lookups, each execution of a search candidate's hash or evaluation
    ([candidate]),
    and the {!Magis_serve} connection layer's socket reads/writes
    ([sock_read]/[sock_write], where [Delay] models a slow client,
    [Stall] a slow-loris one and [Exception] a torn connection). *)
val sites : string list

(** [arm specs] plants the given faults and starts counting site visits
    from zero.  Replaces any previous plan. *)
val arm : spec list -> unit

(** [observe ()] arms the injector with no faults at all: visits are
    counted (see {!visits}) but nothing ever fires.  Used to measure a
    fault-free run before planning where to inject. *)
val observe : unit -> unit

(** Disarm and forget counters, plan and log. *)
val disarm : unit -> unit

val armed : unit -> bool

(** Visits of a site counted since the last {!arm}/{!observe} (0 when
    disarmed or never visited). *)
val visits : string -> int

(** Faults fired since the last {!arm}, oldest first. *)
val fired : unit -> spec list

(** [seeded ~seed ~lo ~hi faults] plans, for each [(site, kind)] pair,
    one fault at a pseudo-random visit in [\[lo, hi)], deterministically
    derived from [seed].  Same seed, same plan. *)
val seeded : seed:int -> lo:int -> hi:int -> (string * kind) list -> spec list

(** [burst ~site ~at ~len kind] is [len] faults at consecutive visits
    [at .. at+len-1] — a persistent failure no bounded retry survives
    (choose [len] larger than the retry budget). *)
val burst : site:string -> at:int -> len:int -> kind -> spec list

(** {1 Site instrumentation}

    Called by instrumented components; near-free when disarmed. *)

(** Control-flow site: may raise {!Injected} or sleep. *)
val hit : string -> unit

(** Float-valued site: may raise, sleep, or corrupt [v] to [nan]. *)
val cost : string -> float -> float
