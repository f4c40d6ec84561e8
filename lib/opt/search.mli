(** Top-level search (Algorithm 3): best-first exploration of M-States
    with BetterThan ordering, WL-hash deduplication, F-Tree refresh and
    incremental scheduling after every transformation.

    Resilience (DESIGN.md §9): supervised candidate expansion with
    quarantine and bounded retry, crash-safe checkpoint/resume, and a
    graceful-degradation ladder near time-budget exhaustion. *)

open Magis_ir
open Magis_cost

type mode =
  | Min_latency of { mem_limit : int }
      (** optimize latency; peak memory must stay below the limit *)
  | Min_memory of { lat_limit : float }
      (** optimize peak memory; latency must stay below the limit *)

type ablation = {
  use_ftree_heuristic : bool;  (** false = "naïve-fission" (Fig. 13) *)
  restrict_sched_rules : bool;  (** false = "naïve-sch-rule" (Fig. 13) *)
  max_level : int;  (** the F-Tree max level L *)
}

val default_ablation : ablation

(** Raised when [verify_states] finds an invalid accepted state.  Never
    retried or quarantined by the supervised expansion: a verification
    failure is an optimizer bug, not a runtime fault. *)
exception Verification_failure of string

type stats = {
  mutable n_transform : int;
  mutable t_transform : float;
  mutable n_sched : int;
  mutable t_sched : float;
  mutable n_simul : int;
  mutable t_simul : float;
  mutable n_hash : int;
  mutable t_hash : float;
  mutable n_filtered : int;  (** duplicate graphs skipped by hash test *)
  mutable iterations : int;
  mutable n_sim_hit : int;  (** evaluations served by the simulation cache *)
  mutable n_sim_miss : int;  (** evaluations computed and then cached *)
  mutable n_sched_fallback : int;
      (** incremental reschedules whose window splice produced an
          illegal order and fell back to a full reschedule *)
  mutable n_resched_nodes : int;
      (** nodes actually re-placed by the incremental rescheduler *)
  mutable n_sched_nodes : int;
      (** total nodes across produced schedules (denominator of the
          rescheduled-node fraction) *)
  mutable domain_time : float array;
      (** cumulative busy seconds per expansion worker ([jobs] cells;
          one cell for a serial run) *)
  mutable n_retried : int;
      (** candidates whose first execution failed and were re-executed
          by the supervisor *)
  mutable n_quarantined : int;
      (** candidates dropped after exhausting their retries; each one
          has a diagnostic in [result.diagnostics] *)
  mutable n_checkpoints : int;  (** snapshots written this run *)
  mutable degrade_steps : (float * string) list;
      (** graceful-degradation ladder steps taken, in order: (elapsed
          seconds, step name) — ["reduce-sched-states"],
          ["best-so-far"] *)
  mutable n_bound_calls : int;
      (** Retired with the search-time bound probe, like the five fields
          after it: always 0, absent from {!stats_json}, {!pp_stats} and
          the profile records, and kept only because the repository
          benchmark's per-layer table still reads them. *)
  mutable t_bound : float;
  mutable n_pruned_lb : int;
  mutable n_lv_delta : int;
  mutable n_cut_reused : int;
  mutable n_cut_recomputed : int;
}

type result = {
  best : Mstate.t;
  initial : Mstate.t;
  stats : stats;
  history : (float * int * float) list;
      (** (elapsed seconds, peak bytes, latency) after each improvement *)
  diagnostics : Magis_analysis.Diagnostic.t list;
      (** quarantine reports from the supervised expansion, oldest
          first ([] in a fault-free run); pass ["resilience"], checks
          ["injected-fault"], ["nonfinite-cost"], ["worker-exception"] *)
  interrupted : bool;
      (** true when the run was cut short by SIGINT/SIGTERM (the
          checkpoint, if configured, was written before returning) *)
}

(** Crash-safe snapshot configuration. *)
type checkpoint = {
  ckpt_path : string;  (** snapshot file, atomically replaced *)
  ckpt_every : float;  (** seconds between periodic snapshots *)
  ckpt_resume : bool;
      (** restore from [ckpt_path] when a compatible snapshot exists.
          A missing file silently starts fresh; a corrupt file or one
          written by a different workload/hardware/configuration raises
          {!Magis_resilience.Checkpoint.Incompatible}.  A resumed
          search continues bit-identically: running N iterations,
          checkpointing and resuming for M more returns the same best
          state as an uninterrupted (N+M)-iteration run. *)
}

type config = {
  ablation : ablation;
  sched_states : int;  (** DP budget per scheduling call; 0 = greedy only *)
  max_per_rule : int;
  time_budget : float;  (** seconds *)
  max_iterations : int;
  diversify_pops : bool;
      (** every few pops, take a random queue bucket instead of the best
          (escapes local optima created by aggressive early rewrites) *)
  use_sweep_rules : bool;  (** compound swap/remat rules *)
  verify_states : bool;
      (** debug: run {!Magis_analysis.Verify} and
          {!Magis_analysis.Sched_check} on every accepted M-state, and
          additionally assert the bound invariant
          [Membound.lower <= simulated peak <= Membound.ub_total] (plus
          the latency floor) via {!Magis_analysis.Hooks.assert_bounds},
          raising {!Verification_failure} on the first violation
          (tests/CI on, benchmarks off) *)
  jobs : int;
      (** worker domains for the per-iteration candidate expansion;
          1 (the default) spawns no domains — the exact legacy serial
          path.  Any [jobs] value returns bit-identical best states:
          candidates are generated, deduplicated and merged serially in
          candidate order. *)
  sim_cache : Sim_cache.t option;
      (** memoizes (reschedule → simulate) evaluations.  [None] (the
          default) uses a fresh private cache per run; pass [Some c] to
          share hits across searches (ablation sweeps, repeated runs). *)
  supervise : bool;
      (** per-candidate exception isolation (default [true]): a failing
          candidate is re-executed up to [max_retries] times with
          bounded backoff on the orchestrating domain, then quarantined
          with a structured diagnostic — the surviving candidates of
          the batch are kept.  Fatal exceptions (out-of-memory,
          {!Verification_failure}, …) always re-raise immediately.
          [false] restores the all-or-nothing legacy semantics where
          the first worker failure aborts the whole search.  Retries
          run serially at the merge, so supervision preserves the
          bit-identical-across-[jobs] guarantee. *)
  max_retries : int;
      (** bounded-backoff re-executions of a failed candidate before it
          is quarantined (default 3) *)
  checkpoint : checkpoint option;
      (** crash-safe snapshots: written every [ckpt_every] seconds, on
          SIGINT/SIGTERM (the run then returns early with
          [interrupted = true]) and once at normal exit.  [None]
          (the default) = off; signal handlers are only installed when
          set. *)
  degrade : bool;
      (** graceful-degradation ladder (default [true]): past 85% of
          [time_budget] the DP scheduling budget steps down to
          {!ladder_sched_states}[ ~level:1], and budget exhaustion
          returns best-so-far — each step recorded in
          [stats.degrade_steps].  Runs with effectively unlimited
          budgets never reach the thresholds, so determinism tests are
          unaffected. *)
  profile : Magis_obs.Profile.t option;
      (** per-iteration telemetry sink ([None], the default, = off):
          after each iteration's merge one JSONL record is written with
          the queue depth, candidate/survivor counts, best-so-far peak
          and latency, cumulative cache/quarantine counters,
          per-phase seconds and per-worker busy fractions.  Purely
          observational — excluded from the trajectory fingerprint and
          never changes the search. *)
  harvest : (iteration:int -> Mstate.t -> unit) option;
      (** frontier side channel ([None], the default, = off): called
          once for every evaluated candidate at the serial
          phase-4 merge, in candidate order, before and regardless of
          δ-admission — so the callback observes the same states in the
          same order for any [jobs] value.  {!Magis_frontier} uses it
          to collect the memory–latency Pareto frontier a search sweeps
          past.  Purely observational: excluded from the trajectory
          fingerprint, and the returned best state is bit-identical
          with the hook on or off (A/B-enforced in the tests). *)
  cancel : unit -> bool;
      (** cooperative cancellation hook, polled at every expansion
          boundary alongside {!Magis_resilience.Interrupt.requested}:
          returning [true] makes the run checkpoint (if configured) and
          return best-so-far with [interrupted] set.  {!Magis_serve}
          maps client disconnects and deadline overruns onto this; the
          default never cancels.  Excluded from the trajectory
          fingerprint (it carries no search-relevant state). *)
}

val default_config : config

(** The DP budget at degradation level [level]: [sched_states]
    unchanged at level 0, a quarter of it at any level [>= 1].  The one
    rung both degradation ladders share — the search past 85% of its
    time budget and {!Magis_serve.Server}'s load shed past half its
    queue.  A no-op at the default [sched_states = 0] (greedy only). *)
val ladder_sched_states : level:int -> int -> int

(** Digest of everything that must match for two runs to follow the
    same trajectory: the input graph (WL hash), the hardware
    fingerprint, the mode with its limit, and every trajectory-relevant
    configuration knob.  [jobs], caching/verification flags and the
    observation-only hooks ([profile], [harvest], [cancel]) are
    excluded — they are result-preserving by construction.  Keys both
    search checkpoints and cached frontiers
    ({!Magis_frontier.Frontier_cache}). *)
val trajectory_fingerprint : config -> mode -> hw:int64 -> Graph.t -> int64

(** Fraction of evaluations served by the simulation cache (0 when none
    ran). *)
val sim_hit_rate : stats -> float

(** Fraction of scheduled nodes the incremental rescheduler actually
    re-placed (0 when nothing was scheduled). *)
val resched_frac : stats -> float

(** Stats as a flat JSON object (plus [domain_time] and
    [degrade_steps] arrays) — the payload of
    [magis_cli optimize --stats-json]. *)
val stats_json : stats -> Magis_obs.Json.t

(** Human-readable stat block: the Fig. 15 phase table (counts and
    cumulative seconds for transformation / scheduling / simulation /
    hashing, plus duplicates filtered) followed by cache, worker, resilience,
    checkpoint and degradation summary lines.  Shared by
    [magis_cli optimize] and the Fig. 15 bench. *)
val pp_stats : Format.formatter -> stats -> unit

(** Comparison key of a state under the given mode. *)
val key : mode -> Mstate.t -> float * float

(** The Algorithm 3 BetterThan, with the paper's δ relaxation. *)
val better_than : mode -> ?delta:float -> Mstate.t -> Mstate.t -> bool

val run : ?config:config -> Op_cost.t -> mode -> Graph.t -> result

(** Minimize memory with at most [overhead] extra latency relative to the
    unoptimized graph (Fig. 9 mode). *)
val optimize_memory :
  ?config:config -> Op_cost.t -> overhead:float -> Graph.t -> result

(** Minimize latency with peak memory at most [mem_ratio] of the
    unoptimized peak (Fig. 10 mode). *)
val optimize_latency :
  ?config:config -> Op_cost.t -> mem_ratio:float -> Graph.t -> result
