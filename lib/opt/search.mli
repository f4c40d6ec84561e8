(** Top-level search (Algorithm 3): best-first exploration of M-States
    with BetterThan ordering, WL-hash deduplication, F-Tree refresh and
    incremental scheduling after every transformation.  The loop is
    serial, as in the paper: each pop's candidates are expanded in
    candidate order on the calling domain, each step a pass over a
    list.

    Resilience (DESIGN.md §9): every step that can fail runs under one
    supervisor, which retries it in place with bounded backoff and
    quarantines it if it keeps failing; crash-safe checkpoint/resume;
    and a graceful-degradation ladder near time-budget exhaustion. *)

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

(** {1 Accounting}

    Every pop runs as a fixed sequence of named stages, and every
    quantity the search counts is a named counter.  Both are declared
    once, in {!stage_names} and {!counter_names}, and one table per run
    holds their values: {!stats_json}, {!pp_stats} (the Fig. 15 table),
    the per-iteration profile records, the [search.<counter>] metrics
    and the [stage-<stage>] trace spans are all views of it. *)

(** Stages, in the order one pop's candidates run them (DESIGN.md §10
    says what each covers, and which part of the pop's context it
    times; the first runs once per run).  No stage's time is inside
    another's. *)
val stage_names : string list

(** Counters.  A step counts into the run's table only once it has
    succeeded, so a retried candidate is counted once, and a transient
    fault changes no counter but [retried].  Each is published as the
    metric ["search." ^ name] at the merge of every pop, from the
    table. *)
val counter_names : string list

(** Seconds per stage and value per counter of one run. *)
type table

(** The fixed-name view of a run's table that the repository benchmark
    reads, built once at the end of {!run}.  Each count is the counter
    of the same meaning and each [t_*] the stage it names: [t_transform]
    is the generate stage, [t_sched] reschedule (the pop's parent
    context and Algorithm 2) and [t_simul] simulate (the candidate's
    operator costs and fission accounting, then the simulation);
    [n_sched], [n_simul] and [n_sim_miss] all read the one cache-miss
    counter, since every miss is rescheduled and simulated exactly
    once. *)
type stats = {
  n_transform : int;
  t_transform : float;
  n_sched : int;
  t_sched : float;
  n_simul : int;
  t_simul : float;
  n_hash : int;
  t_hash : float;
  n_filtered : int;  (** duplicate graphs skipped by the hash test *)
  iterations : int;
  n_sim_hit : int;
  n_sim_miss : int;
  sim_cached : bool;
      (** the run had a simulation cache to probe; without one
          [n_sim_hit] is 0 and {!pp_stats} prints no hit-rate line *)
  n_sched_fallback : int;
      (** incremental reschedules whose window splice fell back to a
          full reschedule *)
  n_resched_nodes : int;  (** nodes re-placed by incremental rescheduling *)
  n_sched_nodes : int;  (** nodes across all produced schedules *)
  n_retried : int;
      (** failed steps retried: a candidate's hash, probe or
          evaluation, or a context of the pop *)
  n_quarantined : int;
      (** candidates dropped after their retries, each with a
          diagnostic in [result.diagnostics] *)
  n_checkpoints : int;
      (** snapshots written, carried across a resume: the periodic ones
          and each {!save} *)
  degrade_steps : (float * string) list;
      (** degradation ladder steps taken, in order: (elapsed seconds,
          ["reduce-sched-states"] or ["best-so-far"]).
          ["reduce-sched-states"] is recorded only when the rung lowers
          the DP budget, so never at [sched_states = 0].
          ["best-so-far"] is recorded only when the time budget ended
          the loop — not when the iteration cap, an empty queue or the
          poll did, even if the last pop overran the budget. *)
  n_bound_calls : int;
      (** Retired with the search-time bound probe, like the five fields
          after it: always 0, not in the table, and kept only because
          the repository benchmark's per-layer table still reads them. *)
  t_bound : float;
  n_pruned_lb : int;
  n_lv_delta : int;
  n_cut_reused : int;
  n_cut_recomputed : int;
  table : table;
  wall : float;
      (** seconds from the start of {!run} to its result (a resumed run
          continues the snapshot's clock) *)
}

(** Every counter with its value, in {!counter_names} order. *)
val counts : stats -> (string * int) list

(** Every stage with its seconds, in {!stage_names} order.  No two
    stages overlap, so their total is at most [wall]. *)
val stage_seconds : stats -> (string * float) list

(** [wall] minus the sum of the stages: the time no stage accounts
    for. *)
val unaccounted : stats -> float

(** The state a run ended in: its loop record, for {!save}. *)
type end_state

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
      (** true when the caller's [poll] stopped the run.  Its end state
          is on disk only if the caller {!save}s it. *)
  resumed : bool;  (** the run continued a snapshot it loaded *)
  end_state : end_state option;
      (** [Some] only when the run had a [checkpoint] configured, so a
          caller holding many results holds no loop state *)
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
          and rebuild every F-Tree replayed from [sim_cache] to compare
          it with the replay, raising {!Verification_failure} on the
          first violation (tests/CI on, benchmarks off) *)
  jobs : int;
      (** Retired: the search runs one serial loop, and {!run} raises
          [Invalid_argument] for any value but 1 (the default).  Kept
          only because the repository benchmark still sets it, like
          the six retired {!stats} fields, and goes with them. *)
  sim_cache : Sim_cache.t option;
      (** memoizes (reschedule → simulate) evaluations across the
          searches sharing it, whatever their mode or limit: each
          survivor of dedup is probed once, serially, and only misses
          are evaluated.  It also stores the F-Tree each stale pop's
          refresh builds, keyed on what the refresh reads (the graph by
          node id, the old tree's enabled entries with their dims, the
          hot-spots, [max_level]); a search that pops the same stale
          state decodes it instead (the [refresh_replays] counter).
          [None] (the default) = no cache, nothing keyed: a cache of
          one search's own never hits, as dedup skips every state it
          could return. *)
  checkpoint : checkpoint option;
      (** crash-safe snapshots: written every [ckpt_every] seconds, at
          the end of a pop, and never when the run returns — whatever
          ended it.  A caller that keeps the end state writes it with
          {!save}.  [None] (the default) = off.  The search installs no
          signal handler: a caller that wants SIGINT/SIGTERM to stop
          the run registers a process signal callback that raises a
          flag its [poll] reads, and saves the result. *)
  profile : Magis_obs.Profile.t option;
      (** per-iteration telemetry sink ([None], the default, = off):
          after each iteration's merge one JSONL record is written with
          [iter], [elapsed], [queue_depth], [candidates], [survivors],
          [best_peak], [best_latency], every counter under its name and
          every stage as [t_<stage>] (cumulative).  Purely
          observational — excluded from the
          trajectory fingerprint and never changes the search. *)
  harvest : (iteration:int -> Mstate.t -> unit) option;
      (** frontier side channel ([None], the default, = off): called
          once for every evaluated candidate at the merge, in
          candidate order, before and regardless of δ-admission.
          {!Magis_frontier} uses it
          to collect the memory–latency Pareto frontier a search sweeps
          past.  Purely observational: excluded from the trajectory
          fingerprint, and the returned best state is bit-identical
          with the hook on or off (A/B-enforced in the tests). *)
  poll : iteration:int -> best:Mstate.t -> [ `Continue | `Stop ];
      (** per-pop hook, called before every pop with the number of
          completed iterations and the best state so far: [`Stop] makes
          the run return best-so-far with [interrupted] set (a caller
          that resumes it later {!save}s it).  The only way a run stops
          before its time budget, its iteration cap or an empty queue:
          the search reads no process signal state, so a signal stops
          it only through a flag its caller's poll reads.
          {!Magis_serve} streams progress
          from it and stops on client disconnect or daemon drain;
          [magis_cli optimize --checkpoint] stops on SIGINT/SIGTERM; the
          default always continues.  Excluded from the trajectory
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
    configuration knob.  Caching/verification flags, the retired
    [jobs] and the observation-only hooks ([profile], [harvest],
    [poll]) are excluded — they are result-preserving by
    construction — and so are the iteration cap and the time budget.
    Keys search checkpoints, and, combined with the cap, cached
    frontiers ({!Magis_frontier.Frontier_build.key}). *)
val trajectory_fingerprint : config -> mode -> hw:int64 -> Graph.t -> int64

(** Fraction of evaluations served by the simulation cache (0 when none
    ran). *)
val sim_hit_rate : stats -> float

(** Fraction of scheduled nodes the incremental rescheduler actually
    re-placed (0 when nothing was scheduled). *)
val resched_frac : stats -> float

(** The table as a flat JSON object — every counter under its name,
    every stage as [t_<stage>] seconds, then [wall], [unaccounted]
    (see {!unaccounted}), [sim_hit_rate], [resched_frac] and the
    [degrade_steps] array.  The payload of
    [magis_cli optimize --stats-json]. *)
val stats_json : stats -> Magis_obs.Json.t

(** Human-readable stat block: the Fig. 15 table (seconds and share of
    wall time per stage, the unaccounted remainder and the wall time),
    every counter, then cache, rescheduling and degradation summary
    lines.
    Shared by [magis_cli optimize] and the Fig. 15 bench. *)
val pp_stats : Format.formatter -> stats -> unit

(** Comparison key of a state under the given mode. *)
val key : mode -> Mstate.t -> float * float

(** The Algorithm 3 BetterThan, with the paper's δ relaxation. *)
val better_than : mode -> ?delta:float -> Mstate.t -> Mstate.t -> bool

(** Run the search.  Candidate expansion is supervised: a failing
    step is re-executed in place, before the next candidate, up to 3
    times with bounded backoff, then quarantined with a structured
    diagnostic, and the pop's other candidates are kept (a pop whose context keeps
    failing to build is quarantined the same way and proposes
    nothing); fatal exceptions (out-of-memory,
    {!Verification_failure}, …) re-raise.  Past 85% of [time_budget]
    the DP budget steps down to {!ladder_sched_states}[ ~level:1], and
    budget exhaustion returns best-so-far, each step that changes
    something recorded in [stats.degrade_steps].  Before its budget, cap or queue runs out,
    only [config.poll] stops it.  It writes snapshots only on its
    periodic [ckpt_every] tick; the state it ends in is the caller's to
    keep, with {!save}.

    @raise Invalid_argument if [config.jobs] is not 1. *)
val run : ?config:config -> Op_cost.t -> mode -> Graph.t -> result

(** [save r] writes the state [r]'s run ended in — at its cap, its
    budget, an empty queue or its poll's [`Stop] — to the run's
    [ckpt_path], through the same write as the periodic tick, keyed by
    the run's trajectory fingerprint.  A run that loads it with
    [ckpt_resume] continues bit-identically, on the clock [r]'s run
    stopped at.  The save is counted in [r]'s table before it is
    written, so the snapshot and the returned stats (whose [wall]
    includes the save) count it.

    @raise Invalid_argument if the run configured no [checkpoint]. *)
val save : result -> result

(** The unoptimized graph's [(peak, latency)]: its topological order,
    simulated.  The baseline {!optimize_memory} and {!optimize_latency}
    scale. *)
val baseline : Op_cost.t -> Graph.t -> int * float

(** Minimize memory with at most [overhead] extra latency relative to the
    unoptimized graph (Fig. 9 mode). *)
val optimize_memory :
  ?config:config -> Op_cost.t -> overhead:float -> Graph.t -> result

(** Minimize latency with peak memory at most [mem_ratio] of the
    unoptimized peak (Fig. 10 mode). *)
val optimize_latency :
  ?config:config -> Op_cost.t -> mem_ratio:float -> Graph.t -> result
