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

    The loop is serial, as in the paper: each pop's candidates are
    generated, hashed, deduplicated, probed, evaluated and merged in
    candidate order on the calling domain, reading only the pop's
    context, built before them.  Every step counts into the run's one
    table, and only once it has succeeded, so a retried candidate is
    counted once.  A {!Sim_cache} the caller
    shares across searches, whatever their mode or limit, is probed once
    per survivor, and only misses are evaluated; it also holds the
    F-Tree of every stale pop's refresh, which a later search popping
    the same stale state decodes instead of rebuilding.  With no cache
    nothing is keyed, as a cache of one search's own never hits (dedup
    skips every state it could return).

    Resilience (see DESIGN.md §9): a step that raises (a candidate's
    hash, probe or evaluation, or a context of the pop) is retried in
    place with bounded backoff and, if it keeps failing, quarantined
    with a structured {!Magis_analysis.Diagnostic} — the other
    candidates of the pop are kept; a pop whose context
    keeps failing to build is quarantined and proposes nothing.  The
    loop state is one record, saved as it is: [config.checkpoint]
    periodically serializes the full frontier to a crash-safe file from
    which a later run resumes bit-identically, and the caller that
    keeps the state a run ends in writes it with {!save}.
    Near the end of the time budget a degradation ladder steps search
    effort down instead of letting the final iterations overshoot it. *)

open Magis_ir
open Magis_cost
open Magis_ftree
open Magis_rules
module Fault = Magis_resilience.Fault
module Retry = Magis_resilience.Retry
module Checkpoint = Magis_resilience.Checkpoint
module Diagnostic = Magis_analysis.Diagnostic
module Int_map = Util.Int_map
module Int_set = Util.Int_set
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics
module Profile = Magis_obs.Profile
module Json = Magis_obs.Json

(* ------------------------------------------------------------------ *)
(* The accounting table                                                *)
(* ------------------------------------------------------------------ *)

(* Every stage and counter is declared on a single line below; the
   table, [stats_json], [pp_stats], the profile records, the [search.*]
   metrics and the [stage-*] trace spans are all views of these two
   lists. *)
let stage_decls = ref [] and counter_decls = ref []

let declare decls name =
  decls := name :: !decls;
  List.length !decls - 1

(* Stages, in the order one pop's candidates run them.  Each span of
   work is timed by exactly one stage, so their seconds add up to at
   most the run's wall time.  The pop's contexts are timed in the
   stages that read them ({!pop_context}, {!resched_context}). *)
let s_init = declare stage_decls "init" (* snapshot, initial M-state *)
let s_pop = declare stage_decls "pop" (* caller's poll, ladder, queue pop *)
let s_refresh = declare stage_decls "refresh" (* pop's index; F-Tree rebuild or decode *)
let s_generate = declare stage_decls "generate" (* order, closure, positions, proposals *)
let s_hash = declare stage_decls "hash" (* labels; WL hash ⊕ F-Tree fp *)
let s_dedup = declare stage_decls "dedup" (* first occurrence wins *)
let s_lookup = declare stage_decls "lookup" (* sched digest, key, probe, a hit's state *)
let s_reschedule = declare stage_decls "reschedule" (* parent, costs; Alg. 2 *)
let s_simulate = declare stage_decls "simulate" (* cost model, simulate, verify, store *)
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
let c_refresh_replays = declare counter_decls "refresh_replays" (* trees unmarshalled *)

let stage_names = List.rev !stage_decls
let counter_names = List.rev !counter_decls
let stage_spans = Array.of_list (List.map (( ^ ) "stage-") stage_names)

let counter_metrics =
  Array.of_list
    (List.map (fun n -> Metrics.counter ("search." ^ n)) counter_names)

(** Seconds per stage and value per counter, indexed by declaration
    order.  A run fills one table; a resumed run adds its setup into
    the snapshot's. *)
type table = { secs : float array; counts : int array }

let fresh_table () =
  { secs = Array.make (List.length stage_names) 0.0;
    counts = Array.make (List.length counter_names) 0 }

let add_table dst src =
  Array.iteri (fun i s -> dst.secs.(i) <- dst.secs.(i) +. s) src.secs;
  Array.iteri (fun i n -> dst.counts.(i) <- dst.counts.(i) + n) src.counts

(* A snapshot written before the last counter was declared holds
   fewer counters: the missing ones start at 0. *)
let widen tb =
  let pad a n z = Array.append a (Array.make (n - Array.length a) z) in
  { secs = pad tb.secs (List.length stage_names) 0.0;
    counts = pad tb.counts (List.length counter_names) 0 }

let bump tb c n = tb.counts.(c) <- tb.counts.(c) + n
let count tb c = tb.counts.(c)

(** Run [f] as stage [stage]: the one place a stage is timed, and the
    one place its trace span opens.  An [f] that raises is timed too,
    so a failed attempt's seconds stay in its stage. *)
let timed tb stage f =
  Trace.with_span ~cat:"search" stage_spans.(stage) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      tb.secs.(stage) <- tb.secs.(stage) +. (Unix.gettimeofday () -. t0))

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
  {
    use_ftree_heuristic = true;
    restrict_sched_rules = true;
    max_level = Ftree.default_max_level;
  }

(** Raised (never quarantined) when [verify_states] finds an invalid
    accepted state: a verification failure is a bug in the optimizer,
    not a runtime fault to be retried around. *)
exception Verification_failure of string

(** The run's table, viewed through the field names the repository
    benchmark reads; built by {!stats_of_table} at the end of the run. *)
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
  sim_cached : bool;
  n_sched_fallback : int;
  n_resched_nodes : int;
  n_sched_nodes : int;
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

let stats_of_table tb ~wall ~degrade_steps ~sim_cached =
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
    sim_cached;
    n_sched_fallback = n c_sched_fallbacks;
    n_resched_nodes = n c_resched_nodes;
    n_sched_nodes = n c_sched_nodes;
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
        ( "degrade_steps",
          Json.List
            (List.map
               (fun (t, name) ->
                 Json.Obj
                   [ ("elapsed", Json.Float t); ("step", Json.String name) ])
               st.degrade_steps) );
      ])

(** The Fig. 15 breakdown — seconds and share of wall time per stage,
    the unaccounted remainder, every counter — then the cache,
    rescheduling and degradation summary lines.  The single stat
    renderer shared by [magis_cli optimize] and the Fig. 15 bench. *)
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
  if st.sim_cached then
    Format.fprintf ppf "Simulation cache: %.0f%% hit rate@\n"
      (100.0 *. sim_hit_rate st);
  if st.n_sched_nodes > 0 then
    Format.fprintf ppf "Incremental scheduling: %.1f%% of nodes re-placed@\n"
      (100.0 *. resched_frac st);
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
  poll : iteration:int -> best:Mstate.t -> [ `Continue | `Stop ];
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
    poll = (fun ~iteration:_ ~best:_ -> `Continue);
  }

(** A candidate M-state.  [p_rewrite] is a rewritten graph's one
    {!Graph_index}, built where the proposal is created: prune, WL hash,
    accounting, rescheduling and simulation all read it.  An F-Tree
    mutation keeps the popped state's graph ([None]): it takes the
    pop's WL hash and is evaluated on the pop's index. *)
type proposal = {
  p_rewrite : Graph_index.t option;
  p_ftree : Ftree.t;
  p_mutated : Int_set.t;  (** old nodes affected, for incremental sched *)
  p_stale : bool;
}

(** What a pop's proposals and their hashes read from the popped state,
    built serially before [generate], then only read.  Nothing of it is
    kept on the state, so a queued state holds no labels. *)
type pop = {
  ix : Graph_index.t;
      (** the popped graph's index, its order (and so its consumers by
          slot) and {!Reach} forced *)
  position : int array;  (** id -> schedule position, for the rule sites *)
  labels : Wl_hash.labels;  (** each rewrite is relabelled from these *)
}

(** The pop's context on [ix], the popped state's index: the order,
    closure and positions timed in [generate], the labels in [hash]. *)
let pop_context tb (s : Mstate.t) ix : pop =
  let position =
    timed tb s_generate (fun () ->
        ignore (Graph_index.order ix : int array);
        ignore (Graph_index.reach ix : Reach.t);
        Magis_sched.Incremental.positions ix s.schedule)
  in
  let labels = timed tb s_hash (fun () -> Wl_hash.labels_on ix) in
  { ix; position; labels }

(** What a pop's misses read: its rescheduling context and base costs,
    built serially after the probes and only when a survivor missed. *)
let resched_context (cost : Op_cost.t) tb (s : Mstate.t) (cx : pop) =
  timed tb s_reschedule (fun () ->
      ( Magis_sched.Incremental.parent ~position:cx.position cx.ix s.schedule,
        Op_cost.costs_on cost cx.ix ))

(** Key of a stale pop's refreshed F-Tree in the simulation cache: a
    digest of exactly what {!Ftree.refresh_on} reads — the graph, pinned
    by node id (each id with its WL label and its operand ids), the old
    tree's enabled entries (members and [n] by {!Ftree.fingerprint},
    then their dims), the hot-spot set and [max_level].  Mode, limit,
    hardware and parent are not read, so they are not in it. *)
let refresh_key ~max_level (cx : pop) (s : Mstate.t) : int64 =
  let mix h x = Util.hash_combine h (Int64.of_int x) in
  let nodes = Graph_index.nodes cx.ix in
  let h =
    Array.fold_left
      (fun h v ->
        let ins = nodes.(v).inputs in
        let h = Util.hash_combine (mix h v) (Wl_hash.label cx.labels v) in
        Array.fold_left mix (mix h (Array.length ins)) ins)
      0x72656672L (Graph_index.order cx.ix)
  in
  let h = Util.hash_combine h (Ftree.fingerprint s.ftree) in
  let h =
    List.fold_left
      (fun h i ->
        let dims = (Ftree.fission_at s.ftree i).dims in
        Int_map.fold (fun v d h -> mix (mix h v) d) dims
          (mix h (Int_map.cardinal dims)))
      h (Ftree.enabled_indices s.ftree)
  in
  let h =
    Int_set.fold (fun v h -> mix h v) s.hotspots
      (mix h (Int_set.cardinal s.hotspots))
  in
  mix h max_level

(** The popped state with a current F-Tree (Algorithm 3, lines 13-14).
    A stale tree is rebuilt by {!Ftree.refresh_on} on the pop's index
    or, when [cfg.sim_cache] holds a tree under its {!refresh_key},
    unmarshalled from there; a rebuilt tree is stored there as its
    [Marshal] bytes.  The bytes come only from this process, under keys
    only {!refresh_key} makes.  Under [verify_states] the stored bytes
    are checked against a rebuild's. *)
let refresh (cfg : config) tb (s : Mstate.t) (cx : pop) : Mstate.t =
  timed tb s_refresh @@ fun () ->
  let max_level = cfg.ablation.max_level in
  let rebuild () =
    Ftree.refresh_on ~max_level cx.ix ~old_tree:s.ftree ~hotspots:s.hotspots
  in
  let ftree =
    if not (s.ftree_stale && cfg.ablation.use_ftree_heuristic) then s.ftree
    else
      match cfg.sim_cache with
      | None -> rebuild ()
      | Some sim -> (
          let key = refresh_key ~max_level cx s in
          match Sim_cache.tree sim key with
          | None ->
              let t = rebuild () in
              Sim_cache.add_tree sim key (Marshal.to_string t []);
              t
          | Some bytes ->
              if cfg.verify_states && Marshal.to_string (rebuild ()) [] <> bytes
              then
                raise
                  (Verification_failure
                     (Printf.sprintf
                        "replayed F-Tree (key %016Lx) differs from its refresh"
                        key));
              bump tb c_refresh_replays 1;
              (Marshal.from_string bytes 0 : Ftree.t))
  in
  { s with ftree; ftree_stale = false }

(** Proposals reached by F-Tree mutations: the graph is unchanged, the
    virtual fission state moves. *)
let ftree_proposals tb (s : Mstate.t) (cx : pop) : proposal list =
  let muts = Ftree.mutations_on cx.ix s.ftree in
  bump tb c_transforms (List.length muts);
  List.filter_map
    (fun (m, tree) ->
      match tree with
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
            { p_rewrite = None; p_ftree = ftree'; p_mutated = affected;
              p_stale = s.ftree_stale })
    muts

(** Proposals reached by graph rewrites (scheduling-based and TASO
    rules), matched on one view of the pop's index, and built only
    where a rule's cap keeps them. *)
let rewrite_proposals (cfg : config) tb (s : Mstate.t) (cx : pop) :
    proposal list =
  let pos = cx.position in
  let ctx =
    {
      Rule.hotspots = s.hotspots;
      frozen = Ftree.frozen_region s.ftree;
      schedule_pos = (fun v -> if pos.(v) < 0 then None else Some pos.(v));
      max_per_rule = cfg.max_per_rule;
      restrict_to_hotspots = cfg.ablation.restrict_sched_rules;
    }
  in
  let view = Rule.view ~pos ctx cx.ix in
  let rules =
    (if cfg.use_sweep_rules then Sched_rules.all else Sched_rules.basic)
    @ Taso_rules.all
  in
  List.concat_map
    (fun (rule : Rule.t) ->
      let rewrites = Rule.rewrites view rule in
      bump tb c_transforms (List.length rewrites);
      List.map
        (fun (rw : Rule.rewrite) ->
          let ix = Graph_index.of_graph rw.graph in
          { p_rewrite = Some ix; p_ftree = Ftree.prune ix s.ftree;
            p_mutated = rw.touched_old; p_stale = true })
        rewrites)
    rules

(** Dedup key of a state: its graph's WL hash, [wl ()], ⊕ F-Tree
    fingerprint. *)
let state_hash tb wl (ftree : Ftree.t) : int64 =
  let h =
    timed tb s_hash (fun () -> Util.hash_combine (wl ()) (Ftree.fingerprint ftree))
  in
  bump tb c_hashes 1;
  h

(** Digest of the mode, including its limit, for
    {!trajectory_fingerprint}: the trajectory depends on the limit, an
    evaluation does not, so the simulation-cache key leaves it out. *)
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

(** Hash a proposal: its dedup hash, counted once it is computed.  A
    rewrite is relabelled from the pop's labels, which forces the
    rewrite index's topological order (rescheduling partitions along
    it); an F-Tree mutation takes the pop's hash. *)
let hash_proposal tb (cx : pop) (p : proposal) : int64 =
  let wl () =
    match p.p_rewrite with
    | None -> Wl_hash.hash_of cx.labels
    | Some ix ->
        Wl_hash.hash_of
          (Wl_hash.relabel_on ~parent_nodes:(Graph_index.nodes cx.ix)
             ~parent:cx.labels ix)
  in
  state_hash tb wl p.p_ftree

let proposal_graph (s : Mstate.t) (p : proposal) =
  match p.p_rewrite with Some ix -> Graph_index.graph ix | None -> s.graph

(** Evaluate a proposal that missed (or had no cache): incremental
    reschedule + simulation on the proposal's index (a mutation's is
    the pop's own, [cx.ix]), stored under [key] in [cfg.sim_cache]
    when there is one; [sched_states] is the effective DP budget.  It
    counts into [tb] only once the state is built and stored, so a
    retried evaluation is counted once. *)
let evaluate_proposal (cfg : config) cost tb ~sched_states
    ~iteration ~key (cx : pop) (parent, costs) (s : Mstate.t) (p : proposal) :
    Mstate.t =
  let graph = proposal_graph s p in
  let ix = Option.value p.p_rewrite ~default:cx.ix in
  (* the candidate's operator costs (a node inherits the pop's base cost
     when it and its operands kept their records) and fission accounting
     are the simulator's cost and size model *)
  let acc =
    timed tb s_simulate (fun () ->
        let base =
          Op_cost.inherited_cost_on cost ~parent_nodes:(Graph_index.nodes cx.ix)
            ~parent_costs:costs ix
        in
        Ftree.accounting ~base cost ix p.p_ftree)
  in
  let schedule, (rstats : Magis_sched.Incremental.stats) =
    timed tb s_reschedule (fun () ->
        Magis_sched.Incremental.reschedule ~max_states:sched_states
          ~parent ~new_index:ix
          ~mutated_old:p.p_mutated ~size_of:acc.size_of ())
  in
  timed tb s_simulate @@ fun () ->
  let s' =
    Mstate.evaluate ~ftree_stale:p.p_stale ~acc cost graph
      p.p_ftree schedule
  in
  if cfg.verify_states then begin
    try
      let what = Printf.sprintf "M-state (iteration %d)" iteration in
      Magis_analysis.Hooks.assert_state ~what s'.graph s'.schedule;
      Magis_analysis.Hooks.assert_bounds ~exact:false ~what
        ~size_of:acc.size_of s'.graph ~peak:s'.peak_mem ();
      let lat_lb = proposal_latency_lb acc graph in
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
  (match (cfg.sim_cache, key) with
  | Some sim, Some key ->
      Sim_cache.add sim key (Mstate.to_cached s')
  | _ -> ());
  bump tb c_sim_misses 1;
  if rstats.fallback then bump tb c_sched_fallbacks 1;
  bump tb c_resched_nodes rstats.rescheduled;
  bump tb c_sched_nodes (List.length schedule);
  s'

(* ------------------------------------------------------------------ *)
(* Checkpoint format                                                   *)
(* ------------------------------------------------------------------ *)

(** Bump whenever {!snapshot} (or anything it reaches: {!Mstate.t},
    {!table}, …) changes shape. *)
let ckpt_version = 4

(** The loop state, which is also the checkpoint: the loop reads and
    writes this one record and a snapshot saves it as it is, so
    restoring it continues the search bit-identically — frontier, dedup
    set, diversification RNG, pop parity, accounting and the
    degradation level all survive. *)
type snapshot = {
  mutable snap_best : Mstate.t;
  snap_initial : Mstate.t;
  mutable snap_queue : Mstate.t list Pq.t;
  snap_seen : (int64, unit) Hashtbl.t;
  snap_rng : Random.State.t;
  mutable snap_pops : int;
  snap_table : table;
  mutable snap_steps : (float * string) list;
  mutable snap_history : (float * int * float) list;  (** newest first *)
  mutable snap_diags : Diagnostic.t list;  (** newest first *)
  mutable snap_elapsed : float;  (** search seconds at a tick or return *)
  mutable snap_degrade : int;
}

(** The one snapshot write, shared by the periodic tick and {!save}.
    Counted before the save, so the snapshot's table includes the
    snapshot itself. *)
let write_snapshot ~path ~fingerprint st =
  bump st.snap_table c_checkpoints 1;
  timed st.snap_table s_checkpoint (fun () ->
      Checkpoint.save ~path ~version:ckpt_version ~fingerprint st)

(** What {!save} needs of a run with a checkpoint configured. *)
type end_state = {
  es_state : snapshot;
  es_path : string;
  es_fingerprint : int64;
}

type result = {
  best : Mstate.t;
  initial : Mstate.t;
  stats : stats;
  history : (float * int * float) list;
  diagnostics : Diagnostic.t list;
  interrupted : bool;
  resumed : bool;
  end_state : end_state option;
}

(* [r.stats.table] is the saved record's, so it already counts the
   save; the stats' copied fields are refreshed from it *)
let save (r : result) =
  let es =
    match r.end_state with
    | Some es -> es
    | None -> invalid_arg "Search.save: the run configured no checkpoint"
  in
  let t0 = Unix.gettimeofday () in
  write_snapshot ~path:es.es_path ~fingerprint:es.es_fingerprint es.es_state;
  Metrics.incr counter_metrics.(c_checkpoints);
  let tb = r.stats.table in
  {
    r with
    stats =
      {
        r.stats with
        n_checkpoints = count tb c_checkpoints;
        wall = r.stats.wall +. (Unix.gettimeofday () -. t0);
      };
  }

(** Digest of everything that must match for a snapshot to continue
    this run's trajectory: the hardware model, the input graph, the
    mode (with its limit) and every trajectory-relevant configuration
    knob.  Caching and verification flags are excluded — they are
    result-preserving by construction — as are the retired [jobs] and
    the observation-only hooks ([profile], [harvest], [poll]). *)
let trajectory_fingerprint (cfg : config) (mode : mode) ~(hw : int64)
    (graph : Graph.t) : int64 =
  let bit b i = if b then 1 lsl i else 0 in
  (* bits 4 to 7 held four retired knobs; they stay folded in at the
     values those knobs had (on, on, on, off), so checkpoints written
     before the knobs went stay valid *)
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

(** The loop state of a fresh run, accounted in [tb]: the initial
    M-state is the best, the queue's one entry and the dedup set's one
    hash.  [elapsed ()] is the run's clock. *)
let start (cfg : config) (cost : Op_cost.t) (mode : mode) (graph : Graph.t) tb
    ~elapsed : snapshot =
  let init =
    timed tb s_init @@ fun () ->
    let s =
      Mstate.init ~max_level:cfg.ablation.max_level
        ~sched_states:cfg.sched_states cost graph
    in
    let s =
      if cfg.ablation.use_ftree_heuristic then s
      else { s with ftree = Ftree.construct_naive graph }
    in
    if cfg.verify_states then begin
      Magis_analysis.Hooks.assert_state ~what:"initial M-state" s.graph
        s.schedule;
      let acc = Ftree.accounting cost (Graph_index.of_graph s.graph) s.ftree in
      Magis_analysis.Hooks.assert_bounds ~what:"initial M-state"
        ~size_of:acc.size_of s.graph ~peak:s.peak_mem ();
      Magis_analysis.Hooks.assert_interference ~what:"initial M-state"
        ~size_of:acc.size_of s.graph s.schedule
    end;
    s
  in
  let history = [ (elapsed (), init.peak_mem, init.latency) ] in
  let seen = Hashtbl.create 1024 in
  Hashtbl.replace seen
    (state_hash tb
       (fun () ->
         Wl_hash.hash_of (Wl_hash.labels_on (Graph_index.of_graph init.graph)))
       init.ftree)
    ();
  {
    snap_best = init;
    snap_initial = init;
    snap_queue = Pq.singleton (key mode init) [ init ];
    snap_seen = seen;
    snap_rng = Random.State.make [| 0x4d41 |];
    snap_pops = 0;
    snap_table = tb;
    snap_steps = [];
    snap_history = history;
    snap_diags = [];
    snap_elapsed = 0.0;
    snap_degrade = 0;
  }

(** Run the search.  Returns the best state found within the time budget,
    the initial state, the accounting table and the improvement history. *)
let run ?(config = default_config) (cost : Op_cost.t) (mode : mode)
    (graph : Graph.t) : result =
  if config.jobs <> 1 then
    invalid_arg "Search.run: config.jobs is retired and must be 1";
  let t0 = Unix.gettimeofday () in
  let tb = fresh_table () in
  let hw, fingerprint, loaded =
    timed tb s_init @@ fun () ->
    let hw = Hardware.fingerprint cost.hw in
    let fingerprint = trajectory_fingerprint config mode ~hw graph in
    let loaded : snapshot option =
      match config.checkpoint with
      | Some { ckpt_path; ckpt_resume = true; _ }
        when Checkpoint.exists ckpt_path ->
          Some
            (Checkpoint.load ~path:ckpt_path ~version:ckpt_version ~fingerprint)
      | _ -> None
    in
    (hw, fingerprint, loaded)
  in
  (* a resumed run continues the snapshot's clock and accounting;
     metrics publish this process's work, the deltas since [published] *)
  let st, published =
    match loaded with
    | Some st ->
        let st = { st with snap_table = widen st.snap_table } in
        add_table st.snap_table tb;
        (st, Array.copy st.snap_table.counts)
    | None ->
        let published = Array.copy tb.counts in
        ( start config cost mode graph tb ~elapsed:(fun () ->
              Unix.gettimeofday () -. t0),
          published )
  in
  let tb = st.snap_table in
  let t_start = t0 -. st.snap_elapsed in
  let elapsed () = Unix.gettimeofday () -. t_start in
  let publish () =
    Array.iteri
      (fun i m ->
        Metrics.add m (tb.counts.(i) - published.(i));
        published.(i) <- tb.counts.(i))
      counter_metrics
  in
  let take k l =
    match l with
    | [ s ] ->
        st.snap_queue <- Pq.remove k st.snap_queue;
        Some s
    | s :: rest ->
        st.snap_queue <- Pq.add k rest st.snap_queue;
        Some s
    | [] -> None
  in
  (* Mostly greedy best-first; every few pops take a random bucket instead,
     so an early aggressive rewrite cannot permanently starve alternative
     trade-off paths (e.g. the gradual F-Tree ladder). *)
  let pop () =
    st.snap_pops <- st.snap_pops + 1;
    let q = st.snap_queue in
    if config.diversify_pops && st.snap_pops mod 4 = 0 && Pq.cardinal q > 1
    then begin
      let n = Pq.cardinal q in
      let idx = Random.State.int st.snap_rng n in
      let chosen = ref None in
      let i = ref 0 in
      Pq.iter
        (fun k l ->
          if !i = idx && !chosen = None then chosen := Some (k, l);
          incr i)
        q;
      match !chosen with
      | Some (k, l) -> take k l
      | None -> (
          match Pq.min_binding_opt q with
          | None -> None
          | Some (k, l) -> take k l)
    end
    else
      match Pq.min_binding_opt q with
      | None -> None
      | Some (k, l) -> take k l
  in
  let push s =
    st.snap_queue <-
      Pq.update (key mode s)
        (function None -> Some [ s ] | Some l -> Some (s :: l))
        st.snap_queue
  in
  (* -------------------------------------------------------------- *)
  (* Graceful-degradation ladder                                     *)
  (* -------------------------------------------------------------- *)
  let record_step name =
    st.snap_steps <- st.snap_steps @ [ (elapsed (), name) ]
  in
  let update_ladder () =
    if st.snap_degrade < 1
       && elapsed () /. config.time_budget >= degrade_sched_frac
    then begin
      st.snap_degrade <- 1;
      (* a no-op rung (greedy only) is not a step taken *)
      if ladder_sched_states ~level:1 config.sched_states < config.sched_states
      then record_step "reduce-sched-states"
    end
  in
  (* periodic snapshots only: the caller saves the state a run ends in *)
  let last_ckpt = ref (elapsed ()) in
  (* -------------------------------------------------------------- *)
  (* Supervision                                                     *)
  (* -------------------------------------------------------------- *)
  let fatal = function
    | Verification_failure _ -> true
    | e -> Retry.fatal e
  in
  let quarantine ~what (f : Retry.failure) =
    bump tb c_quarantined 1;
    Trace.instant ~cat:"search"
      ~args:[ ("what", what); ("exn", Printexc.to_string f.exn) ]
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
        "iteration %d: %s quarantined after %d execution(s): %s%s"
        (count tb c_iterations) what f.attempts
        (Printexc.to_string f.exn)
        (if bt = "" then "" else "\n" ^ String.trim bt)
    in
    st.snap_diags <- d :: st.snap_diags
  in
  (* Failure isolation: [f x] runs once; a failure is retried in place
     with bounded backoff (a transient fault passes on re-execution),
     and one that keeps failing is quarantined with a structured
     diagnostic.  A fatal exception re-raises. *)
  let supervise ~what f x =
    match f x with
    | v -> Some v
    | exception e -> (
        let bt = Printexc.get_raw_backtrace () in
        if fatal e then Printexc.raise_with_backtrace e bt;
        bump tb c_retried 1;
        match Retry.run (fun () -> f x) with
        | Ok v -> Some v
        | Error failure ->
            quarantine ~what failure;
            None)
  in
  let record_profile ~candidates ~survivors =
    match config.profile with
    | None -> ()
    | Some sink ->
        let el = elapsed () in
        let queue_depth =
          Pq.fold (fun _ l acc -> acc + List.length l) st.snap_queue 0
        in
        Profile.record sink
          ([
             ("iter", Json.Int (count tb c_iterations));
             ("elapsed", Json.Float el);
             ("queue_depth", Json.Int queue_depth);
             ("candidates", Json.Int candidates);
             ("survivors", Json.Int survivors);
             ("best_peak", Json.Int st.snap_best.peak_mem);
             ("best_latency", Json.Float st.snap_best.latency);
           ]
          @ table_fields tb)
  in
  (* Expand the popped state [s] against its context [cx]: generate,
     hash, dedup, probe, evaluate the misses and merge, each step over
     the candidates in order.  A candidate is named by its position
     among the pop's proposals. *)
  let expand (s : Mstate.t) (cx : pop) =
    let proposals =
      timed tb s_generate @@ fun () ->
      (if Ftree.n_entries s.ftree > 0 then ftree_proposals tb s cx else [])
      @ rewrite_proposals config tb s cx
    in
    let sched_states =
      ladder_sched_states ~level:st.snap_degrade config.sched_states
    in
    (* Hash test FIRST: duplicate graphs skip scheduling and simulation
       entirely (the Fig. 15 "Filtered" column).  Each execution of a
       candidate's hash or evaluation visits the [candidate] fault
       site. *)
    let hashed =
      List.mapi (fun i p -> (i, p)) proposals
      |> List.filter_map (fun (i, p) ->
             supervise ~what:(Printf.sprintf "hash candidate %d" i)
               (fun p ->
                 Fault.hit "candidate";
                 (i, p, hash_proposal tb cx p))
               p)
    in
    (* Dedup against every state seen so far: first occurrence wins. *)
    let survivors =
      timed tb s_dedup @@ fun () ->
      List.filter
        (fun (_, _, h) ->
          let seen = Hashtbl.mem st.snap_seen h in
          if seen then bump tb c_filtered 1
          else Hashtbl.replace st.snap_seen h ();
          not seen)
        hashed
    in
    (* Probe the cache once per survivor: a hit is its state, [Left], a
       miss the key its evaluation is stored under, [Right]. *)
    let probed =
      match config.sim_cache with
      | None -> List.map (fun (i, p, _) -> (i, p, Either.Right None)) survivors
      | Some sim ->
          let sched_hash =
            timed tb s_lookup (fun () -> Util.hash_int_list s.schedule)
          in
          let probe (i, (p : proposal), h) =
            timed tb s_lookup @@ fun () ->
            let key =
              Sim_cache.key ~state:h ~parent_sched:sched_hash
                ~mutated:(Util.hash_int_list (Int_set.elements p.p_mutated))
                ~sched_states ~hw
            in
            match Sim_cache.find sim key with
            | None -> (i, p, Either.Right (Some key))
            | Some v ->
                let g = proposal_graph s p in
                let s' = Mstate.of_cached ~ftree_stale:p.p_stale g p.p_ftree v in
                bump tb c_sim_hits 1;
                (i, p, Either.Left s')
          in
          List.filter_map
            (fun ((i, _, _) as c) ->
              supervise ~what:(Printf.sprintf "probe candidate %d" i) probe c)
            survivors
    in
    (* Evaluate the misses, in candidate order, on the pop's
       rescheduling context, built only when one missed.  A context
       that keeps failing quarantines the misses; the hits stay. *)
    let iteration = count tb c_iterations in
    let rcx =
      if List.exists (fun (_, _, r) -> Either.is_right r) probed then
        supervise ~what:"rescheduling context" (resched_context cost tb s) cx
      else None
    in
    let states =
      List.filter_map
        (fun (i, p, r) ->
          match (r, rcx) with
          | Either.Left s', _ -> Some s'
          | Either.Right _, None -> None (* quarantined with the context *)
          | Either.Right key, Some rcx ->
              supervise ~what:(Printf.sprintf "evaluate candidate %d" i)
                (fun p ->
                  Fault.hit "candidate";
                  evaluate_proposal config cost tb ~sched_states ~iteration
                    ~key cx rcx s p)
                p)
        probed
    in
    (* Merge into best/queue, in candidate order. *)
    timed tb s_merge @@ fun () ->
    List.iter
      (fun (s' : Mstate.t) ->
        (* observation-only side channel: sees every evaluated
           candidate in candidate order, never feeds back into
           best/queue *)
        Option.iter (fun f -> f ~iteration s') config.harvest;
        if better_than mode s' st.snap_best then begin
          (* only accepted bests reach the caller, so proving their
             memory plan interference-free here covers every
             reported result without paying the allocator replay
             per candidate *)
          if config.verify_states then begin
            let acc =
              Ftree.accounting cost (Graph_index.of_graph s'.graph) s'.ftree
            in
            try
              Magis_analysis.Hooks.assert_interference
                ~what:(Printf.sprintf "accepted best (iteration %d)" iteration)
                ~size_of:acc.size_of s'.graph s'.schedule
            with Failure msg -> raise (Verification_failure msg)
          end;
          st.snap_best <- s';
          st.snap_history <-
            (elapsed (), s'.peak_mem, s'.latency) :: st.snap_history
        end;
        if better_than mode ~delta:queue_delta s' st.snap_best then push s')
      states;
    record_profile ~candidates:(List.length proposals)
      ~survivors:(List.length survivors);
    publish ()
  in
  let interrupted = ref false and out_of_time = ref false in
  (try
    while count tb c_iterations < config.max_iterations do
      (* tested after the cap: a capped run whose last pop overran the
         budget completed, it was not cut short *)
      if elapsed () >= config.time_budget then begin
        out_of_time := true;
        raise Exit
      end;
      let s =
        timed tb s_pop @@ fun () ->
        if
          config.poll ~iteration:(count tb c_iterations) ~best:st.snap_best
          = `Stop
        then begin
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
      (* One index of the popped graph serves the pop: its context, the
         F-Tree refresh and mutations, and the rule sites. *)
      let ix = timed tb s_refresh (fun () -> Graph_index.of_graph s.graph) in
      (* The pop's context is built before the refresh keys on its
         labels and the candidates read it (the misses' part in
         [expand]).  A context that keeps failing to build quarantines
         the pop, which then proposes nothing. *)
      Option.iter
        (fun cx -> expand (refresh config tb s cx) cx)
        (supervise ~what:"pop context" (pop_context tb s) ix);
      match config.checkpoint with
      | Some { ckpt_path; ckpt_every; _ }
        when elapsed () -. !last_ckpt >= ckpt_every ->
          st.snap_elapsed <- elapsed ();
          write_snapshot ~path:ckpt_path ~fingerprint st;
          last_ckpt := elapsed ()
      | _ -> ()
    done
   with Exit -> ());
  if !out_of_time then record_step "best-so-far";
  publish ();
  st.snap_elapsed <- elapsed ();
  {
    best = st.snap_best;
    initial = st.snap_initial;
    stats =
      stats_of_table tb ~wall:st.snap_elapsed ~degrade_steps:st.snap_steps
        ~sim_cached:(Option.is_some config.sim_cache);
    history = List.rev st.snap_history;
    diagnostics = List.rev st.snap_diags;
    interrupted = !interrupted;
    resumed = Option.is_some loaded;
    end_state =
      Option.map
        (fun c ->
          { es_state = st; es_path = c.ckpt_path; es_fingerprint = fingerprint })
        config.checkpoint;
  }

(* ------------------------------------------------------------------ *)
(* Convenience wrappers                                                *)
(* ------------------------------------------------------------------ *)

let baseline (cost : Op_cost.t) (graph : Graph.t) =
  let base = Simulator.run cost graph (Graph.topo_order graph) in
  (base.peak_mem, base.latency)

(** Optimize peak memory subject to a latency-overhead bound relative to
    the unoptimized graph (e.g. [0.10] allows 10% overhead). *)
let optimize_memory ?config (cost : Op_cost.t) ~(overhead : float)
    (graph : Graph.t) : result =
  let _, latency = baseline cost graph in
  run ?config cost (Min_memory { lat_limit = latency *. (1.0 +. overhead) }) graph

(** Optimize latency subject to a peak-memory bound relative to the
    unoptimized graph (e.g. [0.4] caps memory at 40%). *)
let optimize_latency ?config (cost : Op_cost.t) ~(mem_ratio : float)
    (graph : Graph.t) : result =
  let peak, _ = baseline cost graph in
  run ?config cost
    (Min_latency { mem_limit = int_of_float (float_of_int peak *. mem_ratio) })
    graph
