(** Top-level search (Algorithm 3 of the paper).

    A greedy best-first search over M-States: a priority queue ordered by
    [BetterThan] (lexicographic on (constrained objective, other
    objective)), Weisfeiler-Lehman hashing to skip duplicate graphs,
    F-Tree refresh after graph rewrites, and incremental scheduling
    (Algorithm 2) after every transformation.

    Two modes: minimize latency under a memory limit, or minimize peak
    memory under a latency limit.  Per-phase time accounting reproduces
    the Fig. 15 breakdown; the history of best results over elapsed time
    reproduces the Fig. 13 curves.

    Candidate expansion is embarrassingly parallel: each child state is
    an independent (rewrite → F-Tree refresh → reschedule → simulate →
    WL-hash) pipeline sharing nothing but the frontier.  With
    [config.jobs > 1] the per-iteration candidates fan out over a fixed
    pool of OCaml 5 domains ({!Magis_par.Pool}); candidates are
    generated, deduplicated and merged serially in candidate order, and
    each worker accumulates into its own [stats] folded at the merge, so
    a parallel run returns bit-identical best states (and per-phase
    totals) to a serial one.  Evaluations are memoized in a
    {!Sim_cache} shared across domains — and, when the caller passes one
    in, across searches.

    Resilience (see DESIGN.md §9): with [config.supervise] (the
    default) a candidate whose evaluation raises is retried with
    bounded backoff and, if it keeps failing, quarantined with a
    structured {!Magis_analysis.Diagnostic} — the surviving candidates
    of the batch are kept, where the legacy path re-raised and lost
    them all.  [config.checkpoint] periodically (and on SIGINT/SIGTERM)
    serializes the full frontier to a crash-safe file from which a
    later run resumes bit-identically.  [config.degrade] steps search
    effort down as the time budget nears exhaustion instead of letting
    the final iterations overshoot it. *)

open Magis_ir
open Magis_cost
open Magis_ftree
open Magis_rules
module Pool = Magis_par.Pool
module Fault = Magis_resilience.Fault
module Retry = Magis_resilience.Retry
module Checkpoint = Magis_resilience.Checkpoint
module Interrupt = Magis_resilience.Interrupt
module Diagnostic = Magis_analysis.Diagnostic
module Int_set = Util.Int_set
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics
module Profile = Magis_obs.Profile
module Json = Magis_obs.Json

let m_iterations = Metrics.counter "search.iterations"
let m_retried = Metrics.counter "search.retried"
let m_quarantined = Metrics.counter "search.quarantined"
let m_sched_fallbacks = Metrics.counter "search.sched_fallbacks"

type mode =
  | Min_latency of { mem_limit : int }
      (** optimize latency, peak memory must stay below the limit *)
  | Min_memory of { lat_limit : float }
      (** optimize peak memory, latency must stay below the limit *)

type ablation = {
  use_ftree_heuristic : bool;  (** false = "naïve-fission" of Fig. 13 *)
  restrict_sched_rules : bool;  (** false = "naïve-sch-rule" of Fig. 13 *)
  max_level : int;  (** F-Tree max level L *)
}

let default_ablation =
  { use_ftree_heuristic = true; restrict_sched_rules = true; max_level = 4 }

(** Raised (never quarantined) when [verify_states] finds an invalid
    accepted state: a verification failure is a bug in the optimizer,
    not a runtime fault to be retried around. *)
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
  mutable n_filtered : int;
  mutable iterations : int;
  mutable n_sim_hit : int;
  mutable n_sim_miss : int;
  mutable n_sched_fallback : int;
      (** incremental reschedules that fell back to a full reschedule
          (window splice produced an illegal order) *)
  mutable n_resched_nodes : int;
      (** nodes actually re-placed by the incremental rescheduler *)
  mutable n_sched_nodes : int;
      (** total nodes across the produced schedules (denominator of the
          rescheduled-node fraction) *)
  mutable domain_time : float array;
      (** cumulative busy seconds per expansion worker *)
  mutable n_retried : int;
  mutable n_quarantined : int;
  mutable n_checkpoints : int;
  mutable degrade_steps : (float * string) list;
      (** graceful-degradation ladder steps taken, in order: (elapsed
          seconds, step name) *)
  mutable n_bound_calls : int;
      (** Retired with the search-time bound probe, like the five fields
          after it: always 0, kept only because the repository
          benchmark's per-layer table still reads them. *)
  mutable t_bound : float;
  mutable n_pruned_lb : int;
  mutable n_lv_delta : int;
  mutable n_cut_reused : int;
  mutable n_cut_recomputed : int;
}

let fresh_stats () =
  {
    n_transform = 0;
    t_transform = 0.0;
    n_sched = 0;
    t_sched = 0.0;
    n_simul = 0;
    t_simul = 0.0;
    n_hash = 0;
    t_hash = 0.0;
    n_filtered = 0;
    iterations = 0;
    n_sim_hit = 0;
    n_sim_miss = 0;
    n_sched_fallback = 0;
    n_resched_nodes = 0;
    n_sched_nodes = 0;
    domain_time = [||];
    n_retried = 0;
    n_quarantined = 0;
    n_checkpoints = 0;
    degrade_steps = [];
    n_bound_calls = 0;
    t_bound = 0.0;
    n_pruned_lb = 0;
    n_lv_delta = 0;
    n_cut_reused = 0;
    n_cut_recomputed = 0;
  }

(** Fold a worker-local accumulator into the run totals.  Workers never
    write the shared record; the fold happens on the orchestrating
    domain, in candidate order, so float sums are reproducible.  The
    supervision counters (retries, quarantines, checkpoints, ladder
    steps) belong to the orchestrator alone and are not folded. *)
let merge_stats (dst : stats) (src : stats) =
  dst.n_transform <- dst.n_transform + src.n_transform;
  dst.t_transform <- dst.t_transform +. src.t_transform;
  dst.n_sched <- dst.n_sched + src.n_sched;
  dst.t_sched <- dst.t_sched +. src.t_sched;
  dst.n_simul <- dst.n_simul + src.n_simul;
  dst.t_simul <- dst.t_simul +. src.t_simul;
  dst.n_hash <- dst.n_hash + src.n_hash;
  dst.t_hash <- dst.t_hash +. src.t_hash;
  dst.n_filtered <- dst.n_filtered + src.n_filtered;
  dst.n_sim_hit <- dst.n_sim_hit + src.n_sim_hit;
  dst.n_sim_miss <- dst.n_sim_miss + src.n_sim_miss;
  dst.n_sched_fallback <- dst.n_sched_fallback + src.n_sched_fallback;
  dst.n_resched_nodes <- dst.n_resched_nodes + src.n_resched_nodes;
  dst.n_sched_nodes <- dst.n_sched_nodes + src.n_sched_nodes

type result = {
  best : Mstate.t;
  initial : Mstate.t;
  stats : stats;
  history : (float * int * float) list;
      (** (elapsed seconds, best peak bytes, best latency) after each
          improvement *)
  diagnostics : Diagnostic.t list;
      (** quarantine reports of the supervised expansion, oldest first
          ([] in a fault-free run) *)
  interrupted : bool;
      (** true when the run was cut short by SIGINT/SIGTERM (the
          checkpoint, if configured, was written before returning) *)
}

(* ------------------------------------------------------------------ *)
(* Stats export                                                        *)
(* ------------------------------------------------------------------ *)

let sim_hit_rate (st : stats) =
  let total = st.n_sim_hit + st.n_sim_miss in
  if total = 0 then 0.0 else float_of_int st.n_sim_hit /. float_of_int total

(** Fraction of scheduled nodes the incremental rescheduler actually
    re-placed (0 when nothing was scheduled) — the O(Δ) headline. *)
let resched_frac (st : stats) =
  if st.n_sched_nodes = 0 then 0.0
  else float_of_int st.n_resched_nodes /. float_of_int st.n_sched_nodes

let stats_json (st : stats) : Json.t =
  Json.Obj
    [
      ("iterations", Json.Int st.iterations);
      ("n_transform", Json.Int st.n_transform);
      ("t_transform", Json.Float st.t_transform);
      ("n_sched", Json.Int st.n_sched);
      ("t_sched", Json.Float st.t_sched);
      ("n_simul", Json.Int st.n_simul);
      ("t_simul", Json.Float st.t_simul);
      ("n_hash", Json.Int st.n_hash);
      ("t_hash", Json.Float st.t_hash);
      ("n_filtered", Json.Int st.n_filtered);
      ("n_sim_hit", Json.Int st.n_sim_hit);
      ("n_sim_miss", Json.Int st.n_sim_miss);
      ("sim_hit_rate", Json.Float (sim_hit_rate st));
      ("n_sched_fallback", Json.Int st.n_sched_fallback);
      ("n_resched_nodes", Json.Int st.n_resched_nodes);
      ("n_sched_nodes", Json.Int st.n_sched_nodes);
      ("resched_frac", Json.Float (resched_frac st));
      ("n_retried", Json.Int st.n_retried);
      ("n_quarantined", Json.Int st.n_quarantined);
      ("n_checkpoints", Json.Int st.n_checkpoints);
      ( "domain_time",
        Json.List
          (Array.to_list (Array.map (fun t -> Json.Float t) st.domain_time)) );
      ( "degrade_steps",
        Json.List
          (List.map
             (fun (t, name) ->
               Json.Obj
                 [ ("elapsed", Json.Float t); ("step", Json.String name) ])
             st.degrade_steps) );
    ]

(** Fig. 15 layout — counts and cumulative seconds per search phase —
    followed by the cache, worker and resilience summary lines.  The
    single stat renderer shared by [magis_cli optimize] and the Fig. 15
    bench (which used to duplicate it). *)
let pp_stats ppf (st : stats) =
  let total = st.t_transform +. st.t_sched +. st.t_simul +. st.t_hash in
  Format.fprintf ppf "%-10s %10s %10s %10s %10s %10s %10s@\n" "" "Total"
    "Trans." "Sched." "Simul." "Hash" "Filtered";
  Format.fprintf ppf "%-10s %10d %10d %10d %10d %10d %10d@\n" "Count"
    (st.n_transform + st.n_sched + st.n_simul + st.n_hash)
    st.n_transform st.n_sched st.n_simul st.n_hash st.n_filtered;
  Format.fprintf ppf "%-10s %10.2f %10.2f %10.2f %10.2f %10.2f %10s@\n"
    "Cost(secs)" total st.t_transform st.t_sched st.t_simul st.t_hash "/";
  Format.fprintf ppf "Iterations: %d@\n" st.iterations;
  Format.fprintf ppf "Simulation cache: %d hits, %d misses (%.0f%% hit rate)@\n"
    st.n_sim_hit st.n_sim_miss
    (100.0 *. sim_hit_rate st);
  if st.n_sched_nodes > 0 then
    Format.fprintf ppf
      "Incremental scheduling: %.1f%% of nodes re-placed; %d fallback(s) to \
       full reschedule@\n"
      (100.0 *. resched_frac st)
      st.n_sched_fallback;
  if Array.length st.domain_time > 0 then
    Format.fprintf ppf "Expansion workers: %d; per-domain busy seconds: [%s]@\n"
      (Array.length st.domain_time)
      (String.concat "; "
         (Array.to_list (Array.map (Printf.sprintf "%.2f") st.domain_time)));
  if st.n_retried > 0 || st.n_quarantined > 0 then
    Format.fprintf ppf "Resilience: %d candidate(s) retried, %d quarantined@\n"
      st.n_retried st.n_quarantined;
  if st.n_checkpoints > 0 then
    Format.fprintf ppf "Checkpoints: %d written@\n" st.n_checkpoints;
  List.iter
    (fun (t, step) -> Format.fprintf ppf "Degraded at %.1fs: %s@\n" t step)
    st.degrade_steps

(* ------------------------------------------------------------------ *)
(* Ordering                                                            *)
(* ------------------------------------------------------------------ *)

(** BetterThan of Algorithm 3: compare the constrained objective clamped
    at the limit first, the free objective second.  [delta] relaxes the
    right-hand side (the paper's δ = 1.1 queue-admission slack). *)
let key (mode : mode) (s : Mstate.t) : float * float =
  match mode with
  | Min_latency { mem_limit } ->
      (float_of_int (max s.peak_mem mem_limit), s.latency)
  | Min_memory { lat_limit } ->
      (Float.max s.latency lat_limit, float_of_int s.peak_mem)

let better_than (mode : mode) ?(delta = 1.0) (a : Mstate.t) (b : Mstate.t) :
    bool =
  let ka1, ka2 = key mode a and kb1, kb2 = key mode b in
  (ka1, ka2) < (delta *. kb1, delta *. kb2)

(** The paper's δ = 1.1 queue-admission slack of the push test. *)
let queue_delta = 1.1

module Pq = Map.Make (struct
  type t = float * float

  let compare = compare
end)

(* ------------------------------------------------------------------ *)
(* Neighbor generation                                                 *)
(* ------------------------------------------------------------------ *)

type checkpoint = {
  ckpt_path : string;  (** snapshot file, atomically replaced *)
  ckpt_every : float;  (** seconds between periodic snapshots *)
  ckpt_resume : bool;
      (** restore from [ckpt_path] when a compatible snapshot exists
          (a missing file silently starts fresh; an incompatible or
          corrupt one raises {!Magis_resilience.Checkpoint.Incompatible}) *)
}

type config = {
  ablation : ablation;
  sched_states : int;  (** DP state budget per scheduling call *)
  max_per_rule : int;
  time_budget : float;  (** seconds *)
  max_iterations : int;
  diversify_pops : bool;
      (** every few pops, take a random queue bucket instead of the best
          (escapes local optima created by aggressive early rewrites) *)
  use_sweep_rules : bool;  (** compound swap/remat rules *)
  verify_states : bool;
      (** debug: run the IR verifier and schedule legality checker on
          every accepted M-state, raising on the first violation (tests
          and CI turn this on; benchmarks leave it off) *)
  jobs : int;
      (** worker domains for candidate expansion; 1 (the default) spawns
          no domains and is the exact legacy serial path *)
  sim_cache : Sim_cache.t option;
      (** simulation cache; [None] (the default) uses a fresh private
          cache per run, [Some c] shares [c] across runs *)
  supervise : bool;
      (** per-candidate exception isolation (default on): a failing
          candidate is retried, then quarantined with a diagnostic,
          and the rest of the batch survives.  Off = the all-or-nothing
          legacy semantics where the first failure aborts the search. *)
  max_retries : int;
      (** bounded-backoff re-executions of a failed candidate before it
          is quarantined *)
  checkpoint : checkpoint option;  (** crash-safe snapshots; [None] = off *)
  degrade : bool;
      (** graceful-degradation ladder (default on): past 85% of
          [time_budget] the DP budget steps down to
          {!ladder_sched_states}, and exhaustion returns best-so-far —
          each step recorded in [stats.degrade_steps] *)
  profile : Profile.t option;
      (** per-iteration telemetry sink (JSONL); [None] (the default) =
          off.  Purely observational: excluded from the trajectory
          fingerprint, never changes the search *)
  harvest : (iteration:int -> Mstate.t -> unit) option;
      (** side channel fed every evaluated candidate at the
          serial phase-4 merge, in candidate order, before and
          regardless of admission ({!Magis_frontier} collects them into
          a Pareto frontier).  Purely observational: excluded from the
          trajectory fingerprint, never changes the search *)
  cancel : unit -> bool;
      (** cooperative cancellation hook, polled at every expansion
          boundary alongside {!Magis_resilience.Interrupt.requested}:
          returning [true] makes the run checkpoint (if configured) and
          return best-so-far with [interrupted] set.  A server maps
          client disconnects onto this.  Default: [fun () -> false]. *)
}

let default_config =
  {
    ablation = default_ablation;
    sched_states = 0;
    max_per_rule = 6;
    time_budget = 10.0;
    max_iterations = max_int;
    diversify_pops = true;
    use_sweep_rules = true;
    verify_states = false;
    jobs = 1;
    sim_cache = None;
    supervise = true;
    max_retries = 3;
    checkpoint = None;
    degrade = true;
    profile = None;
    harvest = None;
    cancel = (fun () -> false);
  }

let timed _stats fld_t fld_n f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  fld_t dt;
  fld_n ();
  r

type proposal = {
  p_graph : Graph.t;
  p_ftree : Ftree.t;
  p_mutated : Int_set.t;  (** old nodes affected, for incremental sched *)
  p_stale : bool;
}

(** Proposals reached by F-Tree mutations: the graph is unchanged, the
    virtual fission state moves. *)
let ftree_proposals _cfg stats (s : Mstate.t) : proposal list =
  let muts =
    timed stats
      (fun dt -> stats.t_transform <- stats.t_transform +. dt)
      (fun () -> ())
      (fun () -> Ftree.mutations s.graph s.ftree)
  in
  List.filter_map
    (fun m ->
      stats.n_transform <- stats.n_transform + 1;
      match Ftree.apply s.graph s.ftree m with
      | None -> None
      | Some ftree' ->
          let affected =
            match m with
            | Ftree.Enable i | Ftree.Disable i | Ftree.Mutate i ->
                Fission.members (Ftree.fission_at ftree' i)
            | Ftree.Lift i ->
                let e = Ftree.entry ftree' i in
                if e.parent >= 0 then
                  Fission.members (Ftree.fission_at ftree' e.parent)
                else Fission.members (Ftree.fission_at ftree' i)
          in
          Some
            { p_graph = s.graph; p_ftree = ftree'; p_mutated = affected;
              p_stale = s.ftree_stale })
    muts

(** Proposals reached by graph rewrites (scheduling-based and TASO rules). *)
let rewrite_proposals (cfg : config) stats (s : Mstate.t) : proposal list =
  let pos = Hashtbl.create (List.length s.schedule) in
  List.iteri (fun i v -> Hashtbl.replace pos v i) s.schedule;
  let ctx =
    {
      Rule.hotspots = s.hotspots;
      frozen = Ftree.frozen_region s.ftree;
      schedule_pos = (fun v -> Hashtbl.find_opt pos v);
      max_per_rule = cfg.max_per_rule;
      restrict_to_hotspots = cfg.ablation.restrict_sched_rules;
    }
  in
  let rules =
    (if cfg.use_sweep_rules then Sched_rules.all else Sched_rules.basic)
    @ Taso_rules.all
  in
  List.concat_map
    (fun (rule : Rule.t) ->
      let rewrites =
        timed stats
          (fun dt -> stats.t_transform <- stats.t_transform +. dt)
          (fun () -> ())
          (fun () -> rule.apply ctx s.graph)
      in
      List.map
        (fun (rw : Rule.rewrite) ->
          stats.n_transform <- stats.n_transform + 1;
          { p_graph = rw.graph; p_ftree = Ftree.prune rw.graph s.ftree;
            p_mutated = rw.touched_old; p_stale = true })
        rewrites)
    rules

(** Everything a worker needs to evaluate proposals: the operator-cost
    cache, the simulation cache and the constant key ingredients. *)
type eval_ctx = {
  ec_cache : Op_cost.t;
  ec_sim : Sim_cache.t;
  ec_mode : int64;  (** mode fingerprint (cross-mode collision guard) *)
  ec_hw : int64;  (** hardware fingerprint *)
}

(** Digest of the mode, including its limit, for the simulation-cache
    key: the two optimization modes can never share an entry. *)
let mode_fingerprint : mode -> int64 = function
  | Min_latency { mem_limit } ->
      Util.hash_combine 1L (Int64.of_int mem_limit)
  | Min_memory { lat_limit } ->
      Util.hash_combine 2L (Int64.bits_of_float lat_limit)

(* ------------------------------------------------------------------ *)
(* Candidate evaluation                                                *)
(* ------------------------------------------------------------------ *)

(** Multiplicative safety margin on the float-summed latency lower
    bound: the simulator accumulates the same per-op costs in schedule
    order interleaved with maxes, so the two sums can differ by ulps.
    Shrinking the bound by one part in 10⁹ keeps it admissible without
    weakening it measurably. *)
let lat_lb_margin = 1.0 -. 1e-9

(** Admissible latency floor of a proposal, checked against every
    simulated state under [verify_states]: serialized compute time of
    every non-swap operator plus the F-Tree's virtual-fission overhead.
    The simulator's latency is [max t_compute t_copy >= t_compute], and
    [t_compute] sums exactly these costs over the schedule. *)
let proposal_latency_lb (acc : Ftree.accounting) (g : Graph.t) : float =
  (Magis_analysis.Membound.latency_lower_bound ~cost_of:acc.cost_of g
  +. acc.extra_latency)
  *. lat_lb_margin

(** Evaluate a proposal: incremental reschedule + simulation, memoized
    in the simulation cache.  [state_hash] is the proposal's dedup hash
    (WL ⊕ F-Tree fingerprint), already computed by the hash phase;
    [parent_sched_hash] digests the schedule being incrementally
    rewritten; [sched_states] is the effective DP budget (the config's,
    unless the degradation ladder stepped it down).  Runs on a worker
    domain: it must only write [stats] (a worker-local accumulator) and
    the domain-safe caches. *)
let evaluate_proposal (cfg : config) (ec : eval_ctx) stats ~sched_states
    ~iteration ~state_hash ~parent_sched_hash (s : Mstate.t) (p : proposal) :
    Mstate.t =
  let key =
    Sim_cache.key ~state:state_hash ~parent_sched:parent_sched_hash
      ~mutated:(Util.hash_int_list (Int_set.elements p.p_mutated))
      ~sched_states ~mode:ec.ec_mode ~hw:ec.ec_hw
  in
  match Sim_cache.find ec.ec_sim key with
  | Some v ->
      stats.n_sim_hit <- stats.n_sim_hit + 1;
      Mstate.of_cached ~ftree_stale:p.p_stale p.p_graph p.p_ftree v
  | None ->
      let acc = Ftree.accounting ec.ec_cache p.p_graph p.p_ftree in
      stats.n_sim_miss <- stats.n_sim_miss + 1;
      let schedule, (rstats : Magis_sched.Incremental.stats) =
        timed stats
          (fun dt -> stats.t_sched <- stats.t_sched +. dt)
          (fun () -> stats.n_sched <- stats.n_sched + 1)
          (fun () ->
            Magis_sched.Incremental.reschedule ~max_states:sched_states
              ~old_graph:s.graph ~new_graph:p.p_graph
              ~old_schedule:s.schedule ~mutated_old:p.p_mutated
              ~size_of:acc.size_of ())
      in
      if rstats.fallback then begin
        stats.n_sched_fallback <- stats.n_sched_fallback + 1;
        Metrics.incr m_sched_fallbacks
      end;
      stats.n_resched_nodes <- stats.n_resched_nodes + rstats.rescheduled;
      stats.n_sched_nodes <- stats.n_sched_nodes + List.length schedule;
      let s' =
        timed stats
          (fun dt -> stats.t_simul <- stats.t_simul +. dt)
          (fun () -> stats.n_simul <- stats.n_simul + 1)
          (fun () ->
            Mstate.evaluate ~ftree_stale:p.p_stale ~acc ec.ec_cache
              p.p_graph p.p_ftree schedule)
      in
      if cfg.verify_states then begin
        try
          let what = Printf.sprintf "M-state (iteration %d)" iteration in
          Magis_analysis.Hooks.assert_state ~what s'.graph s'.schedule;
          Magis_analysis.Hooks.assert_bounds ~exact:false ~what
            ~size_of:acc.size_of s'.graph ~peak:s'.peak_mem ();
          let lat_lb = proposal_latency_lb acc p.p_graph in
          if s'.latency < lat_lb then
            failwith
              (Printf.sprintf
                 "%s violated the latency lower bound: simulated %.9f < \
                  bound %.9f"
                 what s'.latency lat_lb)
        with Failure msg ->
          (* never quarantined: an invalid accepted state is an
             optimizer bug, not a transient runtime fault *)
          raise (Verification_failure msg)
      end;
      Sim_cache.add ~parent:s.schedule ec.ec_sim key (Mstate.to_cached s');
      s'

(* ------------------------------------------------------------------ *)
(* Checkpoint format                                                   *)
(* ------------------------------------------------------------------ *)

(** Bump whenever {!snapshot} (or anything it reaches: {!Mstate.t},
    {!stats}, …) changes shape. *)
let ckpt_version = 3

(** The complete loop state: restoring it continues the search
    bit-identically — frontier, dedup set, diversification RNG, pop
    parity, accounting and the degradation level all survive. *)
type snapshot = {
  snap_best : Mstate.t;
  snap_initial : Mstate.t;
  snap_queue : Mstate.t list Pq.t;
  snap_seen : (int64, unit) Hashtbl.t;
  snap_rng : Random.State.t;
  snap_pops : int;
  snap_stats : stats;
  snap_history : (float * int * float) list;  (** newest first *)
  snap_diags : Diagnostic.t list;  (** newest first *)
  snap_elapsed : float;
  snap_degrade : int;
}

(** Digest of everything that must match for a snapshot to continue
    this run's trajectory: the hardware model, the input graph, the
    mode (with its limit) and every trajectory-relevant configuration
    knob.  [jobs], caching and verification flags are excluded — they
    are result-preserving by construction — as are the observation-only
    hooks ([profile], [harvest], [cancel]). *)
let trajectory_fingerprint (cfg : config) (mode : mode) ~(hw : int64)
    (graph : Graph.t) : int64 =
  let bit b i = if b then 1 lsl i else 0 in
  (* bits 4, 6 and 7 held three retired knobs; they stay folded in at
     the defaults those knobs had (on, on, off), so keys written before
     the knobs went — checkpoints and on-disk frontier caches — stay
     valid *)
  let retired = bit true 4 lor bit true 6 lor bit false 7 in
  let flags =
    bit cfg.ablation.use_ftree_heuristic 0
    lor bit cfg.ablation.restrict_sched_rules 1
    lor bit cfg.diversify_pops 2
    lor bit cfg.use_sweep_rules 3
    lor bit cfg.degrade 5
    lor retired
  in
  let h = Util.hash_combine (Wl_hash.hash graph) hw in
  let h = Util.hash_combine h (mode_fingerprint mode) in
  let h = Util.hash_combine h (Int64.of_int cfg.sched_states) in
  let h = Util.hash_combine h (Int64.of_int cfg.max_per_rule) in
  let h = Util.hash_combine h (Int64.of_int cfg.ablation.max_level) in
  Util.hash_combine h (Int64.of_int flags)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

(** Budget fraction at which the ladder steps down to
    {!ladder_sched_states}; at exhaustion the loop condition returns
    best-so-far. *)
let degrade_sched_frac = 0.85

(** The DP budget at degradation level [level]: unchanged at level 0,
    a quarter above it.  The single rung shared by the search's
    time-pressure ladder and {!Magis_serve.Server}'s load-shed ladder.
    A no-op at the default [sched_states = 0] (greedy only). *)
let ladder_sched_states ~level sched_states =
  if level >= 1 then sched_states / 4 else sched_states

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let state_hash stats (s : Mstate.t) : int64 =
  let t0 = Unix.gettimeofday () in
  let h =
    Util.hash_combine (Wl_hash.hash s.graph) (Ftree.fingerprint s.ftree)
  in
  stats.t_hash <- stats.t_hash +. (Unix.gettimeofday () -. t0);
  stats.n_hash <- stats.n_hash + 1;
  h

(** Run the search.  Returns the best state found within the time budget,
    the initial state, per-phase statistics and the improvement history. *)
let run ?(config = default_config) (cache : Op_cost.t) (mode : mode)
    (graph : Graph.t) : result =
  let ec =
    {
      ec_cache = cache;
      ec_sim =
        (match config.sim_cache with
        | Some c -> c
        | None -> Sim_cache.create ());
      ec_mode = mode_fingerprint mode;
      ec_hw = Hardware.fingerprint cache.hw;
    }
  in
  let fingerprint = trajectory_fingerprint config mode ~hw:ec.ec_hw graph in
  let snap : snapshot option =
    match config.checkpoint with
    | Some { ckpt_path; ckpt_resume = true; _ }
      when Checkpoint.exists ckpt_path ->
        Some
          (Checkpoint.load ~path:ckpt_path ~version:ckpt_version ~fingerprint)
    | _ -> None
  in
  let stats =
    match snap with Some s -> s.snap_stats | None -> fresh_stats ()
  in
  let pool = Pool.create config.jobs in
  Fun.protect ~finally:(fun () ->
      stats.domain_time <- Pool.busy_time pool;
      Pool.shutdown pool)
  @@ fun () ->
  let t_start =
    Unix.gettimeofday ()
    -. (match snap with Some s -> s.snap_elapsed | None -> 0.0)
  in
  let elapsed () = Unix.gettimeofday () -. t_start in
  let init =
    match snap with
    | Some s -> s.snap_initial
    | None ->
        let s = Mstate.init ~max_level:config.ablation.max_level
            ~sched_states:config.sched_states cache graph
        in
        if config.ablation.use_ftree_heuristic then s
        else { s with ftree = Ftree.construct_naive graph }
  in
  if config.verify_states && snap = None then begin
    Magis_analysis.Hooks.assert_state ~what:"initial M-state" init.graph
      init.schedule;
    let acc = Ftree.accounting cache init.graph init.ftree in
    Magis_analysis.Hooks.assert_bounds ~what:"initial M-state"
      ~size_of:acc.size_of init.graph ~peak:init.peak_mem ();
    Magis_analysis.Hooks.assert_interference ~what:"initial M-state"
      ~size_of:acc.size_of init.graph init.schedule
  end;
  let best = ref (match snap with Some s -> s.snap_best | None -> init) in
  let history =
    ref
      (match snap with
      | Some s -> s.snap_history
      | None -> [ (elapsed (), init.peak_mem, init.latency) ])
  in
  let diags = ref (match snap with Some s -> s.snap_diags | None -> []) in
  let seen =
    match snap with Some s -> s.snap_seen | None -> Hashtbl.create 1024
  in
  let q =
    ref
      (match snap with
      | Some s -> s.snap_queue
      | None -> Pq.singleton (key mode init) [ init ])
  in
  let rng =
    match snap with
    | Some s -> s.snap_rng
    | None -> Random.State.make [| 0x4d41 |]
  in
  let pops = ref (match snap with Some s -> s.snap_pops | None -> 0) in
  if snap = None then Hashtbl.replace seen (state_hash stats init) ();
  let take k l =
    match l with
    | [ s ] ->
        q := Pq.remove k !q;
        Some s
    | s :: rest ->
        q := Pq.add k rest !q;
        Some s
    | [] -> None
  in
  (* Mostly greedy best-first; every few pops take a random bucket instead,
     so an early aggressive rewrite cannot permanently starve alternative
     trade-off paths (e.g. the gradual F-Tree ladder). *)
  let pop () =
    incr pops;
    if config.diversify_pops && !pops mod 4 = 0 && Pq.cardinal !q > 1 then begin
      let n = Pq.cardinal !q in
      let idx = Random.State.int rng n in
      let chosen = ref None in
      let i = ref 0 in
      Pq.iter
        (fun k l ->
          if !i = idx && !chosen = None then chosen := Some (k, l);
          incr i)
        !q;
      match !chosen with
      | Some (k, l) -> take k l
      | None -> (
          match Pq.min_binding_opt !q with
          | None -> None
          | Some (k, l) -> take k l)
    end
    else
      match Pq.min_binding_opt !q with
      | None -> None
      | Some (k, l) -> take k l
  in
  let push s =
    q :=
      Pq.update (key mode s)
        (function None -> Some [ s ] | Some l -> Some (s :: l))
        !q
  in
  (* -------------------------------------------------------------- *)
  (* Graceful-degradation ladder                                     *)
  (* -------------------------------------------------------------- *)
  let degrade_level =
    ref (match snap with Some s -> s.snap_degrade | None -> 0)
  in
  let record_step name =
    stats.degrade_steps <- stats.degrade_steps @ [ (elapsed (), name) ]
  in
  let update_ladder () =
    if config.degrade then begin
      let frac = elapsed () /. config.time_budget in
      if !degrade_level < 1 && frac >= degrade_sched_frac then begin
        degrade_level := 1;
        record_step "reduce-sched-states"
      end
    end
  in
  (* -------------------------------------------------------------- *)
  (* Checkpointing                                                   *)
  (* -------------------------------------------------------------- *)
  let last_ckpt = ref (elapsed ()) in
  let write_checkpoint () =
    match config.checkpoint with
    | None -> ()
    | Some { ckpt_path; _ } ->
        Checkpoint.save ~path:ckpt_path ~version:ckpt_version ~fingerprint
          {
            snap_best = !best;
            snap_initial = init;
            snap_queue = !q;
            snap_seen = seen;
            snap_rng = rng;
            snap_pops = !pops;
            snap_stats = stats;
            snap_history = !history;
            snap_diags = !diags;
            snap_elapsed = elapsed ();
            snap_degrade = !degrade_level;
          };
        stats.n_checkpoints <- stats.n_checkpoints + 1;
        last_ckpt := elapsed ()
  in
  (* -------------------------------------------------------------- *)
  (* Supervision                                                     *)
  (* -------------------------------------------------------------- *)
  let fatal = function
    | Verification_failure _ -> true
    | e -> Retry.fatal e
  in
  let quarantine ~phase ~index (f : Retry.failure) =
    stats.n_quarantined <- stats.n_quarantined + 1;
    Metrics.incr m_quarantined;
    Trace.instant ~cat:"search"
      ~args:
        [ ("phase", phase); ("index", string_of_int index);
          ("exn", Printexc.to_string f.exn) ]
      "quarantine";
    let check =
      match f.exn with
      | Fault.Injected _ -> "injected-fault"
      | Op_cost.Non_finite _ -> "nonfinite-cost"
      | _ -> "worker-exception"
    in
    let bt = Printexc.raw_backtrace_to_string f.backtrace in
    let d =
      Diagnostic.errorf ~pass:"resilience" ~check
        "iteration %d: %s candidate %d quarantined after %d execution(s): %s%s"
        stats.iterations phase index f.attempts
        (Printexc.to_string f.exn)
        (if bt = "" then "" else "\n" ^ String.trim bt)
    in
    diags := d :: !diags
  in
  (* Run one expansion phase over the pool.  Supervised mode isolates
     per-candidate failures: a failed task is retried with bounded
     backoff on the orchestrating domain (a transient fault passes on
     re-execution) and a persistently failing candidate is quarantined
     with a structured diagnostic — the survivors of the batch are
     kept.  The legacy mode re-raises the first failure, aborting the
     batch. *)
  let supervised_map ~phase f xs =
    if not config.supervise then Array.map Option.some (Pool.map pool f xs)
    else
      Array.mapi
        (fun index r ->
          match r with
          | Ok v -> Some v
          | Error (e, bt) when fatal e -> Printexc.raise_with_backtrace e bt
          | Error _ -> (
              stats.n_retried <- stats.n_retried + 1;
              Metrics.incr m_retried;
              let policy =
                { Retry.default with attempts = config.max_retries }
              in
              match Retry.run ~policy (fun () -> f xs.(index)) with
              | Ok v -> Some v
              | Error failure ->
                  quarantine ~phase ~index failure;
                  None))
        (Pool.map_result pool f xs)
  in
  let interrupted = ref false in
  let loop () =
    try
      while elapsed () < config.time_budget
            && stats.iterations < config.max_iterations do
       if Interrupt.requested () || config.cancel () then begin
         interrupted := true;
         raise Exit
       end;
       update_ladder ();
       (match config.checkpoint with
       | Some { ckpt_every; _ } when elapsed () -. !last_ckpt >= ckpt_every ->
           write_checkpoint ()
       | _ -> ());
       match pop () with
       | None -> raise Exit
       | Some s ->
           stats.iterations <- stats.iterations + 1;
           Metrics.incr m_iterations;
           if Trace.enabled () then
             Trace.instant ~cat:"search"
               ~args:
                 [ ("iteration", string_of_int stats.iterations);
                   ("peak_mem", string_of_int s.peak_mem);
                   ("latency", Printf.sprintf "%.9g" s.latency);
                   ("entries", string_of_int (Ftree.n_entries s.ftree));
                   ( "enabled",
                     string_of_int
                       (List.length (Ftree.enabled_indices s.ftree)) );
                   ("stale", string_of_bool s.ftree_stale) ]
               "pop";
           (* refresh a stale F-Tree (Algorithm 3 line 13-14) *)
           let s =
             if s.ftree_stale && config.ablation.use_ftree_heuristic then
               let ftree =
                 Ftree.refresh ~max_level:config.ablation.max_level s.graph
                   ~old_tree:s.ftree ~hotspots:s.hotspots
               in
               { s with ftree; ftree_stale = false }
             else { s with ftree_stale = false }
           in
           let proposals =
             Trace.with_span ~cat:"search" "phase-transform" @@ fun () ->
             Array.of_list
               ((if Ftree.n_entries s.ftree > 0 then
                   ftree_proposals config stats s
                 else [])
               @ rewrite_proposals config stats s)
           in
           (* Phase 1 (parallel): structural hash of every candidate.
              Hash test FIRST: duplicate graphs skip scheduling and
              simulation entirely (the Fig. 15 "Filtered" column). *)
           let hashed =
             Trace.with_span ~cat:"search" "phase-hash" @@ fun () ->
             supervised_map ~phase:"hash"
               (fun (p : proposal) ->
                 let t0 = Unix.gettimeofday () in
                 let h =
                   Util.hash_combine (Wl_hash.hash p.p_graph)
                     (Ftree.fingerprint p.p_ftree)
                 in
                 (p, h, Unix.gettimeofday () -. t0))
               proposals
           in
           Array.iter
             (function
               | None -> ()
               | Some (_, _, dt) ->
                   stats.t_hash <- stats.t_hash +. dt;
                   stats.n_hash <- stats.n_hash + 1)
             hashed;
           (* Phase 2 (serial, candidate order): dedup against every
              state seen so far.  First occurrence wins, exactly as in a
              serial run. *)
           let survivors =
             Array.to_list hashed
             |> List.filter_map (function
                  | None -> None (* quarantined in the hash phase *)
                  | Some ((p : proposal), h, _) ->
                      if Hashtbl.mem seen h then begin
                        stats.n_filtered <- stats.n_filtered + 1;
                        None
                      end
                      else begin
                        Hashtbl.replace seen h ();
                        Some (p, h)
                      end)
             |> Array.of_list
           in
           (* Phase 3 (parallel): reschedule + simulate the survivors.
              Each worker accumulates into its own stats record. *)
           let parent_sched_hash = Util.hash_int_list s.schedule in
           let iteration = stats.iterations in
           let sched_states =
             ladder_sched_states ~level:!degrade_level config.sched_states
           in
           let evaluated =
             Trace.with_span ~cat:"search" "phase-evaluate" @@ fun () ->
             supervised_map ~phase:"evaluate"
               (fun ((p : proposal), h) ->
                 Trace.with_span ~cat:"search" "candidate" @@ fun () ->
                 let local = fresh_stats () in
                 let s' =
                   evaluate_proposal config ec local ~sched_states ~iteration
                     ~state_hash:h ~parent_sched_hash s p
                 in
                 (s', local))
               survivors
           in
           (* Phase 4 (serial, candidate order): fold worker stats and
              merge into best/queue — bit-identical to the serial loop.
              Quarantined candidates contribute nothing. *)
           (Trace.with_span ~cat:"search" "phase-merge" @@ fun () ->
            Array.iter
              (function
                | None -> ()
                | Some ((s' : Mstate.t), local) ->
                    merge_stats stats local;
                    (* observation-only side channel: sees every
                       evaluated candidate in candidate order, never
                       feeds back into best/queue *)
                    (match config.harvest with
                    | Some f -> f ~iteration:stats.iterations s'
                    | None -> ());
                    if better_than mode s' !best then begin
                      (* only accepted bests reach the caller, so proving
                         their memory plan interference-free here covers
                         every reported result without paying the
                         allocator replay per candidate *)
                      if config.verify_states then begin
                        let acc = Ftree.accounting cache s'.graph s'.ftree in
                        try
                          Magis_analysis.Hooks.assert_interference
                            ~what:
                              (Printf.sprintf "accepted best (iteration %d)"
                                 stats.iterations)
                            ~size_of:acc.size_of s'.graph s'.schedule
                        with Failure msg -> raise (Verification_failure msg)
                      end;
                      best := s';
                      history :=
                        (elapsed (), s'.peak_mem, s'.latency) :: !history
                    end;
                    if better_than mode ~delta:queue_delta s' !best then
                      push s')
              evaluated);
           (* Per-iteration telemetry, after the merge so the record
              sees the iteration's final best and queue. *)
           (match config.profile with
           | None -> ()
           | Some sink ->
               let el = elapsed () in
               let queue_depth =
                 Pq.fold (fun _ l acc -> acc + List.length l) !q 0
               in
               let busy_frac =
                 Array.map
                   (fun b -> if el > 0.0 then b /. el else 0.0)
                   (Pool.busy_time pool)
               in
               Profile.record sink
                 [
                   ("iter", Json.Int stats.iterations);
                   ("elapsed", Json.Float el);
                   ("queue_depth", Json.Int queue_depth);
                   ("candidates", Json.Int (Array.length proposals));
                   ("survivors", Json.Int (Array.length survivors));
                   ("best_peak", Json.Int !best.peak_mem);
                   ("best_latency", Json.Float !best.latency);
                   ("sim_hits", Json.Int stats.n_sim_hit);
                   ("sim_misses", Json.Int stats.n_sim_miss);
                   ("sim_hit_rate", Json.Float (sim_hit_rate stats));
                   ("filtered", Json.Int stats.n_filtered);
                   ("retried", Json.Int stats.n_retried);
                   ("quarantined", Json.Int stats.n_quarantined);
                   ("t_transform", Json.Float stats.t_transform);
                   ("t_sched", Json.Float stats.t_sched);
                   ("t_simul", Json.Float stats.t_simul);
                   ("t_hash", Json.Float stats.t_hash);
                   ( "pool_busy_frac",
                     Json.List
                       (Array.to_list
                          (Array.map (fun f -> Json.Float f) busy_frac)) );
                 ])
      done
    with Exit -> ()
  in
  (* signal handlers are installed only when the run can do something
     useful with an interrupt: write its checkpoint and return early *)
  (match config.checkpoint with
  | None -> loop ()
  | Some _ -> Interrupt.with_guard loop);
  if config.degrade && (not !interrupted) && elapsed () >= config.time_budget
  then record_step "best-so-far";
  write_checkpoint ();
  {
    best = !best;
    initial = init;
    stats;
    history = List.rev !history;
    diagnostics = List.rev !diags;
    interrupted = !interrupted;
  }

(* ------------------------------------------------------------------ *)
(* Convenience wrappers                                                *)
(* ------------------------------------------------------------------ *)

(** Optimize peak memory subject to a latency-overhead bound relative to
    the unoptimized graph (e.g. [0.10] allows 10% overhead). *)
let optimize_memory ?config (cache : Op_cost.t) ~(overhead : float)
    (graph : Graph.t) : result =
  let base = Simulator.run cache graph (Graph.topo_order graph) in
  run ?config cache
    (Min_memory { lat_limit = base.latency *. (1.0 +. overhead) })
    graph

(** Optimize latency subject to a peak-memory bound relative to the
    unoptimized graph (e.g. [0.4] caps memory at 40%). *)
let optimize_latency ?config (cache : Op_cost.t) ~(mem_ratio : float)
    (graph : Graph.t) : result =
  let base = Simulator.run cache graph (Graph.topo_order graph) in
  run ?config cache
    (Min_latency
       { mem_limit = int_of_float (float_of_int base.peak_mem *. mem_ratio) })
    graph
