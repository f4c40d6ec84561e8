(** Top-level search (Algorithm 3 of the paper).

    A greedy best-first search over M-States: a priority queue ordered by
    [BetterThan] (lexicographic on (constrained objective, other
    objective)), Weisfeiler-Lehman hashing to skip duplicate graphs,
    F-Tree refresh after graph rewrites, and incremental scheduling
    (Algorithm 2) after every transformation.

    Two modes: minimize latency under a memory limit, or minimize peak
    memory under a latency limit.  Every pop runs as a fixed sequence of
    named stages, each timed into one accounting table owned by the run;
    the table reproduces the Fig. 15 breakdown, and the history of best
    results over elapsed time reproduces the Fig. 13 curves.

    Candidate expansion is embarrassingly parallel: each child state is
    an independent (hash → lookup → reschedule → simulate) pipeline
    sharing nothing but the frontier.  With [config.jobs > 1] the
    per-iteration candidates fan out over a fixed pool of OCaml 5
    domains ({!Magis_par.Pool}); candidates are generated, deduplicated
    and merged serially in candidate order, and each candidate
    accumulates into its own table, added into the run's at the merge,
    so a parallel run returns bit-identical best states (and counts) to
    a serial one.  Evaluations are memoized in a {!Sim_cache} shared
    across domains — and, when the caller passes one in, across
    searches.

    Resilience (see DESIGN.md §9): a candidate whose evaluation raises
    is retried with bounded backoff and, if it keeps failing,
    quarantined with a structured {!Magis_analysis.Diagnostic} — the
    surviving candidates of the batch are kept.  [config.checkpoint]
    periodically (and on SIGINT/SIGTERM) serializes the full frontier to
    a crash-safe file from which a later run resumes bit-identically.
    Near the end of the time budget a degradation ladder steps search
    effort down instead of letting the final iterations overshoot it. *)

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

(* ------------------------------------------------------------------ *)
(* The accounting table                                                *)
(* ------------------------------------------------------------------ *)

(* Every stage and counter is declared once, on one line below; the
   table, [stats_json], [pp_stats], the profile records, the [search.*]
   metrics and the [stage-*] trace spans are all views of these two
   lists. *)
let stage_decls = ref [] and counter_decls = ref []

let declare decls name =
  decls := name :: !decls;
  List.length !decls - 1

(* Stages, in the order one pop runs them.  Each span of work is timed
   by exactly one stage, so their seconds add up to at most the wall
   time of a serial run; the candidate stages (hash, lookup,
   reschedule, simulate) run on the pool and sum busy seconds across
   its domains. *)
let s_init = declare stage_decls "init" (* snapshot, pool, initial M-state *)
let s_pop = declare stage_decls "pop" (* interrupt poll, ladder, queue pop *)
let s_refresh = declare stage_decls "refresh" (* stale F-Tree rebuild *)
let s_generate = declare stage_decls "generate" (* mutations and rewrites *)
let s_hash = declare stage_decls "hash" (* WL hash ⊕ F-Tree fingerprint *)
let s_dedup = declare stage_decls "dedup" (* first occurrence wins *)
let s_lookup = declare stage_decls "lookup" (* simulation-cache key, probe *)
let s_reschedule = declare stage_decls "reschedule" (* accounting, Alg. 2 *)
let s_simulate = declare stage_decls "simulate" (* simulate, verify, store *)
let s_merge = declare stage_decls "merge" (* admission, profile, metrics *)
let s_checkpoint = declare stage_decls "checkpoint" (* snapshot writes *)

(* Counters; each is also the metric ["search." ^ name]. *)
let c_iterations = declare counter_decls "iterations"
let c_transforms = declare counter_decls "transforms"
let c_hashes = declare counter_decls "hashes"
let c_filtered = declare counter_decls "filtered" (* duplicates skipped *)
let c_sim_hits = declare counter_decls "sim_hits"
let c_sim_misses = declare counter_decls "sim_misses" (* each one evaluated *)
let c_sched_fallbacks = declare counter_decls "sched_fallbacks"
let c_resched_nodes = declare counter_decls "resched_nodes" (* re-placed *)
let c_sched_nodes = declare counter_decls "sched_nodes" (* produced *)
let c_retried = declare counter_decls "retried"
let c_quarantined = declare counter_decls "quarantined"
let c_checkpoints = declare counter_decls "checkpoints"

let stage_names = List.rev !stage_decls
let counter_names = List.rev !counter_decls
let stage_spans = Array.of_list (List.map (( ^ ) "stage-") stage_names)

let counter_metrics =
  Array.of_list
    (List.map (fun n -> Metrics.counter ("search." ^ n)) counter_names)

(** Seconds per stage and value per counter, indexed by declaration
    order.  Workers fill private tables that are added into the run's
    at the serial merge, in candidate order. *)
type table = { secs : float array; counts : int array }

let fresh_table () =
  { secs = Array.make (List.length stage_names) 0.0;
    counts = Array.make (List.length counter_names) 0 }

let add_table dst src =
  Array.iteri (fun i s -> dst.secs.(i) <- dst.secs.(i) +. s) src.secs;
  Array.iteri (fun i n -> dst.counts.(i) <- dst.counts.(i) + n) src.counts

let bump tb c n = tb.counts.(c) <- tb.counts.(c) + n
let count tb c = tb.counts.(c)

(** Run [f] as stage [stage]: the one place a stage is timed, and the
    one place its trace span opens. *)
let timed tb stage f =
  Trace.with_span ~cat:"search" stage_spans.(stage) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let r = f () in
  tb.secs.(stage) <- tb.secs.(stage) +. (Unix.gettimeofday () -. t0);
  r

(** The table's named values: every counter under its name, every stage
    as [t_<name>] seconds.  Shared by {!stats_json} and the profile. *)
let table_fields tb =
  List.mapi (fun i n -> (n, Json.Int tb.counts.(i))) counter_names
  @ List.mapi (fun i n -> ("t_" ^ n, Json.Float tb.secs.(i))) stage_names

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

(** The run's table, viewed through the field names the repository
    benchmark reads; built once, by {!stats_of_table}. *)
type stats = {
  n_transform : int;
  t_transform : float;
  n_sched : int;
  t_sched : float;
  n_simul : int;
  t_simul : float;
  n_hash : int;
  t_hash : float;
  n_filtered : int;
  iterations : int;
  n_sim_hit : int;
  n_sim_miss : int;
  n_sched_fallback : int;
  n_resched_nodes : int;
  n_sched_nodes : int;
  domain_time : float array;
  n_retried : int;
  n_quarantined : int;
  n_checkpoints : int;
  degrade_steps : (float * string) list;
  n_bound_calls : int;  (* retired, like the five fields after it *)
  t_bound : float;
  n_pruned_lb : int;
  n_lv_delta : int;
  n_cut_reused : int;
  n_cut_recomputed : int;
  table : table;
  wall : float;
}

let stats_of_table tb ~wall ~domain_time ~degrade_steps =
  let n c = tb.counts.(c) and t s = tb.secs.(s) in
  {
    n_transform = n c_transforms;
    t_transform = t s_generate;
    n_sched = n c_sim_misses;
    t_sched = t s_reschedule;
    n_simul = n c_sim_misses;
    t_simul = t s_simulate;
    n_hash = n c_hashes;
    t_hash = t s_hash;
    n_filtered = n c_filtered;
    iterations = n c_iterations;
    n_sim_hit = n c_sim_hits;
    n_sim_miss = n c_sim_misses;
    n_sched_fallback = n c_sched_fallbacks;
    n_resched_nodes = n c_resched_nodes;
    n_sched_nodes = n c_sched_nodes;
    domain_time;
    n_retried = n c_retried;
    n_quarantined = n c_quarantined;
    n_checkpoints = n c_checkpoints;
    degrade_steps;
    n_bound_calls = 0;
    t_bound = 0.0;
    n_pruned_lb = 0;
    n_lv_delta = 0;
    n_cut_reused = 0;
    n_cut_recomputed = 0;
    table = tb;
    wall;
  }

type result = {
  best : Mstate.t;
  initial : Mstate.t;
  stats : stats;
  history : (float * int * float) list;
  diagnostics : Diagnostic.t list;
  interrupted : bool;
}

(* ------------------------------------------------------------------ *)
(* Stats export                                                        *)
(* ------------------------------------------------------------------ *)

let counts (st : stats) =
  List.mapi (fun i n -> (n, st.table.counts.(i))) counter_names

let stage_seconds (st : stats) =
  List.mapi (fun i n -> (n, st.table.secs.(i))) stage_names

let unaccounted (st : stats) =
  st.wall -. Array.fold_left ( +. ) 0.0 st.table.secs

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let sim_hit_rate (st : stats) =
  ratio st.n_sim_hit (st.n_sim_hit + st.n_sim_miss)

(** Fraction of scheduled nodes the incremental rescheduler actually
    re-placed (0 when nothing was scheduled). *)
let resched_frac (st : stats) = ratio st.n_resched_nodes st.n_sched_nodes

let stats_json (st : stats) : Json.t =
  Json.Obj
    (table_fields st.table
    @ [
        ("wall", Json.Float st.wall);
        ("unaccounted", Json.Float (unaccounted st));
        ("sim_hit_rate", Json.Float (sim_hit_rate st));
        ("resched_frac", Json.Float (resched_frac st));
        ( "domain_time",
          Json.List
            (Array.to_list (Array.map (fun t -> Json.Float t) st.domain_time))
        );
        ( "degrade_steps",
          Json.List
            (List.map
               (fun (t, name) ->
                 Json.Obj
                   [ ("elapsed", Json.Float t); ("step", Json.String name) ])
               st.degrade_steps) );
      ])

(** The Fig. 15 breakdown — seconds and share of wall time per stage,
    the unaccounted remainder, every counter — then the cache, worker
    and degradation summary lines.  The single stat renderer shared by
    [magis_cli optimize] and the Fig. 15 bench. *)
let pp_stats ppf (st : stats) =
  let row name s =
    Format.fprintf ppf "%-12s %10.4f %6.1f%%@\n" name s
      (if st.wall > 0.0 then 100.0 *. s /. st.wall else 0.0)
  in
  Format.fprintf ppf "%-12s %10s %7s@\n" "Stage" "Seconds" "Share";
  List.iter (fun (name, s) -> row name s) (stage_seconds st);
  row "unaccounted" (unaccounted st);
  row "wall" st.wall;
  Format.fprintf ppf "@[<hov 2>Counters:";
  List.iter (fun (name, n) -> Format.fprintf ppf "@ %s=%d" name n) (counts st);
  Format.fprintf ppf "@]@\n";
  Format.fprintf ppf "Simulation cache: %.0f%% hit rate@\n"
    (100.0 *. sim_hit_rate st);
  if st.n_sched_nodes > 0 then
    Format.fprintf ppf "Incremental scheduling: %.1f%% of nodes re-placed@\n"
      (100.0 *. resched_frac st);
  if Array.length st.domain_time > 0 then
    Format.fprintf ppf "Expansion workers: %d; per-domain busy seconds: [%s]@\n"
      (Array.length st.domain_time)
      (String.concat "; "
         (Array.to_list (Array.map (Printf.sprintf "%.2f") st.domain_time)));
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

(* Fields of [checkpoint] and [config] are documented in the
   interface. *)
type checkpoint = {
  ckpt_path : string;
  ckpt_every : float;
  ckpt_resume : bool;
}

type config = {
  ablation : ablation;
  sched_states : int;
  max_per_rule : int;
  time_budget : float;
  max_iterations : int;
  diversify_pops : bool;
  use_sweep_rules : bool;
  verify_states : bool;
  jobs : int;
  sim_cache : Sim_cache.t option;
  checkpoint : checkpoint option;
  profile : Profile.t option;
  harvest : (iteration:int -> Mstate.t -> unit) option;
  cancel : unit -> bool;
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
    checkpoint = None;
    profile = None;
    harvest = None;
    cancel = (fun () -> false);
  }

type proposal = {
  p_graph : Graph.t;
  p_ftree : Ftree.t;
  p_mutated : Int_set.t;  (** old nodes affected, for incremental sched *)
  p_stale : bool;
}

(** Proposals reached by F-Tree mutations: the graph is unchanged, the
    virtual fission state moves. *)
let ftree_proposals tb (s : Mstate.t) : proposal list =
  let muts = Ftree.mutations s.graph s.ftree in
  bump tb c_transforms (List.length muts);
  List.filter_map
    (fun m ->
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
let rewrite_proposals (cfg : config) tb (s : Mstate.t) : proposal list =
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
      let rewrites = rule.apply ctx s.graph in
      bump tb c_transforms (List.length rewrites);
      List.map
        (fun (rw : Rule.rewrite) ->
          { p_graph = rw.graph; p_ftree = Ftree.prune rw.graph s.ftree;
            p_mutated = rw.touched_old; p_stale = true })
        rewrites)
    rules

(** Dedup key of a state: WL hash of the graph ⊕ F-Tree fingerprint. *)
let state_hash tb (g : Graph.t) (ftree : Ftree.t) : int64 =
  bump tb c_hashes 1;
  timed tb s_hash (fun () ->
      Util.hash_combine (Wl_hash.hash g) (Ftree.fingerprint ftree))

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
    in the simulation cache.  [state_hash] is the proposal's dedup hash,
    already computed by the hash stage; [parent_sched_hash] digests the
    schedule being incrementally rewritten; [sched_states] is the
    effective DP budget (the config's, unless the degradation ladder
    stepped it down).  Runs on a worker domain: it must only write [tb]
    (a candidate-local table) and the domain-safe caches. *)
let evaluate_proposal (cfg : config) (ec : eval_ctx) tb ~sched_states
    ~iteration ~state_hash ~parent_sched_hash (s : Mstate.t) (p : proposal) :
    Mstate.t =
  let key, cached =
    timed tb s_lookup (fun () ->
        let key =
          Sim_cache.key ~state:state_hash ~parent_sched:parent_sched_hash
            ~mutated:(Util.hash_int_list (Int_set.elements p.p_mutated))
            ~sched_states ~mode:ec.ec_mode ~hw:ec.ec_hw
        in
        (key, Sim_cache.find ec.ec_sim key))
  in
  match cached with
  | Some v ->
      bump tb c_sim_hits 1;
      Mstate.of_cached ~ftree_stale:p.p_stale p.p_graph p.p_ftree v
  | None ->
      bump tb c_sim_misses 1;
      let acc, schedule =
        timed tb s_reschedule (fun () ->
            let acc = Ftree.accounting ec.ec_cache p.p_graph p.p_ftree in
            let schedule, (rstats : Magis_sched.Incremental.stats) =
              Magis_sched.Incremental.reschedule ~max_states:sched_states
                ~old_graph:s.graph ~new_graph:p.p_graph
                ~old_schedule:s.schedule ~mutated_old:p.p_mutated
                ~size_of:acc.size_of ()
            in
            if rstats.fallback then bump tb c_sched_fallbacks 1;
            bump tb c_resched_nodes rstats.rescheduled;
            bump tb c_sched_nodes (List.length schedule);
            (acc, schedule))
      in
      timed tb s_simulate @@ fun () ->
      let s' =
        Mstate.evaluate ~ftree_stale:p.p_stale ~acc ec.ec_cache p.p_graph
          p.p_ftree schedule
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
    {!table}, …) changes shape. *)
let ckpt_version = 4

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
  snap_table : table;
  snap_steps : (float * string) list;
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
  (* bits 4 to 7 held four retired knobs; they stay folded in at the
     values those knobs had (on, on, on, off), so keys written before
     the knobs went — checkpoints and on-disk frontier caches — stay
     valid *)
  let retired = bit true 4 lor bit true 5 lor bit true 6 lor bit false 7 in
  let flags =
    bit cfg.ablation.use_ftree_heuristic 0
    lor bit cfg.ablation.restrict_sched_rules 1
    lor bit cfg.diversify_pops 2
    lor bit cfg.use_sweep_rules 3
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

(** Run the search.  Returns the best state found within the time budget,
    the initial state, the accounting table and the improvement history. *)
let run ?(config = default_config) (cache : Op_cost.t) (mode : mode)
    (graph : Graph.t) : result =
  let t0 = Unix.gettimeofday () in
  let tb = fresh_table () in
  let ec, fingerprint, snap, pool =
    timed tb s_init @@ fun () ->
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
    (ec, fingerprint, snap, Pool.create config.jobs)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* a resumed run continues the snapshot's clock and accounting *)
  let t_start =
    t0 -. (match snap with Some s -> s.snap_elapsed | None -> 0.0)
  in
  let elapsed () = Unix.gettimeofday () -. t_start in
  Option.iter (fun s -> add_table tb s.snap_table) snap;
  (* metrics publish this process's work: the deltas since this copy *)
  let published = Array.copy tb.counts in
  let publish () =
    Array.iteri
      (fun i m ->
        Metrics.add m (tb.counts.(i) - published.(i));
        published.(i) <- tb.counts.(i))
      counter_metrics
  in
  let init =
    timed tb s_init @@ fun () ->
    match snap with
    | Some s -> s.snap_initial
    | None ->
        let s =
          Mstate.init ~max_level:config.ablation.max_level
            ~sched_states:config.sched_states cache graph
        in
        let s =
          if config.ablation.use_ftree_heuristic then s
          else { s with ftree = Ftree.construct_naive graph }
        in
        if config.verify_states then begin
          Magis_analysis.Hooks.assert_state ~what:"initial M-state" s.graph
            s.schedule;
          let acc = Ftree.accounting cache s.graph s.ftree in
          Magis_analysis.Hooks.assert_bounds ~what:"initial M-state"
            ~size_of:acc.size_of s.graph ~peak:s.peak_mem ();
          Magis_analysis.Hooks.assert_interference ~what:"initial M-state"
            ~size_of:acc.size_of s.graph s.schedule
        end;
        s
  in
  let best = ref (match snap with Some s -> s.snap_best | None -> init) in
  let history =
    ref
      (match snap with
      | Some s -> s.snap_history
      | None -> [ (elapsed (), init.peak_mem, init.latency) ])
  in
  let diags = ref (match snap with Some s -> s.snap_diags | None -> []) in
  let steps = ref (match snap with Some s -> s.snap_steps | None -> []) in
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
  if snap = None then
    Hashtbl.replace seen (state_hash tb init.graph init.ftree) ();
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
  let record_step name = steps := !steps @ [ (elapsed (), name) ] in
  let update_ladder () =
    if !degrade_level < 1
       && elapsed () /. config.time_budget >= degrade_sched_frac
    then begin
      degrade_level := 1;
      record_step "reduce-sched-states"
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
        (* counted before the save, so the snapshot's table includes
           the snapshot itself *)
        bump tb c_checkpoints 1;
        timed tb s_checkpoint (fun () ->
            Checkpoint.save ~path:ckpt_path ~version:ckpt_version ~fingerprint
              {
                snap_best = !best;
                snap_initial = init;
                snap_queue = !q;
                snap_seen = seen;
                snap_rng = rng;
                snap_pops = !pops;
                snap_table = tb;
                snap_steps = !steps;
                snap_history = !history;
                snap_diags = !diags;
                snap_elapsed = elapsed ();
                snap_degrade = !degrade_level;
              });
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
    bump tb c_quarantined 1;
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
        (count tb c_iterations) phase index f.attempts
        (Printexc.to_string f.exn)
        (if bt = "" then "" else "\n" ^ String.trim bt)
    in
    diags := d :: !diags
  in
  (* Run one expansion step over the pool with per-candidate failure
     isolation: a failed task is retried with bounded backoff on the
     orchestrating domain (a transient fault passes on re-execution)
     and a persistently failing candidate is quarantined with a
     structured diagnostic — the survivors of the batch are kept. *)
  let supervised_map ~phase f xs =
    Array.mapi
      (fun index r ->
        match r with
        | Ok v -> Some v
        | Error (e, bt) when fatal e -> Printexc.raise_with_backtrace e bt
        | Error _ -> (
            bump tb c_retried 1;
            match Retry.run (fun () -> f xs.(index)) with
            | Ok v -> Some v
            | Error failure ->
                quarantine ~phase ~index failure;
                None))
      (Pool.map_result pool f xs)
  in
  let record_profile ~candidates ~survivors =
    match config.profile with
    | None -> ()
    | Some sink ->
        let el = elapsed () in
        let queue_depth = Pq.fold (fun _ l acc -> acc + List.length l) !q 0 in
        let busy_frac =
          Array.map
            (fun b -> Json.Float (if el > 0.0 then b /. el else 0.0))
            (Pool.busy_time pool)
        in
        Profile.record sink
          ([
             ("iter", Json.Int (count tb c_iterations));
             ("elapsed", Json.Float el);
             ("queue_depth", Json.Int queue_depth);
             ("candidates", Json.Int candidates);
             ("survivors", Json.Int survivors);
             ("best_peak", Json.Int !best.peak_mem);
             ("best_latency", Json.Float !best.latency);
           ]
          @ table_fields tb
          @ [ ("pool_busy_frac", Json.List (Array.to_list busy_frac)) ])
  in
  let interrupted = ref false in
  let loop () =
    try
      while elapsed () < config.time_budget
            && count tb c_iterations < config.max_iterations do
        let s =
          timed tb s_pop @@ fun () ->
          if Interrupt.requested () || config.cancel () then begin
            interrupted := true;
            raise Exit
          end;
          update_ladder ();
          match pop () with
          | None -> raise Exit
          | Some s ->
              bump tb c_iterations 1;
              if Trace.enabled () then
                Trace.instant ~cat:"search"
                  ~args:
                    [ ("iteration", string_of_int (count tb c_iterations));
                      ("peak_mem", string_of_int s.peak_mem);
                      ("latency", Printf.sprintf "%.9g" s.latency);
                      ("entries", string_of_int (Ftree.n_entries s.ftree));
                      ( "enabled",
                        string_of_int
                          (List.length (Ftree.enabled_indices s.ftree)) );
                      ("stale", string_of_bool s.ftree_stale) ]
                  "pop";
              s
        in
        (* refresh a stale F-Tree (Algorithm 3 line 13-14) *)
        let s =
          timed tb s_refresh @@ fun () ->
          if s.ftree_stale && config.ablation.use_ftree_heuristic then
            let ftree =
              Ftree.refresh ~max_level:config.ablation.max_level s.graph
                ~old_tree:s.ftree ~hotspots:s.hotspots
            in
            { s with ftree; ftree_stale = false }
          else { s with ftree_stale = false }
        in
        let proposals =
          timed tb s_generate @@ fun () ->
          Array.of_list
            ((if Ftree.n_entries s.ftree > 0 then ftree_proposals tb s
              else [])
            @ rewrite_proposals config tb s)
        in
        (* Hash test FIRST, on the pool: duplicate graphs skip
           scheduling and simulation entirely (the Fig. 15 "Filtered"
           column). *)
        let hashed =
          supervised_map ~phase:"hash"
            (fun (p : proposal) ->
              let local = fresh_table () in
              (p, state_hash local p.p_graph p.p_ftree, local))
            proposals
        in
        (* Serial, candidate order: dedup against every state seen so
           far.  First occurrence wins, exactly as in a serial run. *)
        let survivors =
          timed tb s_dedup @@ fun () ->
          Array.to_list hashed
          |> List.filter_map (function
               | None -> None (* quarantined in the hash step *)
               | Some ((p : proposal), h, local) ->
                   add_table tb local;
                   if Hashtbl.mem seen h then begin
                     bump tb c_filtered 1;
                     None
                   end
                   else begin
                     Hashtbl.replace seen h ();
                     Some (p, h)
                   end)
          |> Array.of_list
        in
        (* On the pool: look up, reschedule and simulate the survivors,
           each into its own table. *)
        let parent_sched_hash =
          timed tb s_lookup (fun () -> Util.hash_int_list s.schedule)
        in
        let iteration = count tb c_iterations in
        let sched_states =
          ladder_sched_states ~level:!degrade_level config.sched_states
        in
        let evaluated =
          supervised_map ~phase:"evaluate"
            (fun ((p : proposal), h) ->
              let local = fresh_table () in
              ( evaluate_proposal config ec local ~sched_states ~iteration
                  ~state_hash:h ~parent_sched_hash s p,
                local ))
            survivors
        in
        (* Serial, candidate order: add the candidate tables and merge
           into best/queue — bit-identical to the serial loop.
           Quarantined candidates contribute nothing. *)
        (timed tb s_merge @@ fun () ->
         Array.iter
           (function
             | None -> ()
             | Some ((s' : Mstate.t), local) ->
                 add_table tb local;
                 (* observation-only side channel: sees every evaluated
                    candidate in candidate order, never feeds back into
                    best/queue *)
                 Option.iter (fun f -> f ~iteration s') config.harvest;
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
                              iteration)
                         ~size_of:acc.size_of s'.graph s'.schedule
                     with Failure msg -> raise (Verification_failure msg)
                   end;
                   best := s';
                   history := (elapsed (), s'.peak_mem, s'.latency) :: !history
                 end;
                 if better_than mode ~delta:queue_delta s' !best then push s')
           evaluated;
         record_profile ~candidates:(Array.length proposals)
           ~survivors:(Array.length survivors);
         publish ());
        match config.checkpoint with
        | Some { ckpt_every; _ } when elapsed () -. !last_ckpt >= ckpt_every ->
            write_checkpoint ()
        | _ -> ()
      done
    with Exit -> ()
  in
  (* signal handlers are installed only when the run can do something
     useful with an interrupt: write its checkpoint and return early *)
  (match config.checkpoint with
  | None -> loop ()
  | Some _ -> Interrupt.with_guard loop);
  if (not !interrupted) && elapsed () >= config.time_budget then
    record_step "best-so-far";
  write_checkpoint ();
  publish ();
  {
    best = !best;
    initial = init;
    stats =
      stats_of_table tb ~wall:(elapsed ()) ~domain_time:(Pool.busy_time pool)
        ~degrade_steps:!steps;
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
