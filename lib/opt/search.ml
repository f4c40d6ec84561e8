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
    per survivor, and only misses are evaluated (a hit is queued as its
    cached peak and latency, which are all the queue reads, and built
    when it is first needed); it also holds one
    record per pop, keyed before the refresh: the refreshed F-Tree and
    the children's dedup hashes and evaluation keys, which a later
    search popping the same state reads instead of rebuilding the tree
    and hashing the children; and one record per initial state, which
    a later search from the same input graph reads instead of
    scheduling, simulating and building its F-Tree.  With no cache
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
let s_init = declare stage_decls "init" (* input index, snapshot, initial M-state *)
let s_pop = declare stage_decls "pop" (* caller's poll, ladder, queue pop *)
let s_refresh = declare stage_decls "refresh" (* pop's index, record; F-Tree rebuild *)
let s_generate = declare stage_decls "generate" (* order, closure, positions, proposals, builds *)
let s_hash = declare stage_decls "hash" (* labels, graph fold, record store; WL hash ⊕ F-Tree fp *)
let s_dedup = declare stage_decls "dedup" (* first occurrence wins *)
let s_lookup = declare stage_decls "lookup" (* sched digest, pop key; key, probe *)
let s_reschedule = declare stage_decls "reschedule" (* parent, costs; Alg. 2 *)
let s_simulate = declare stage_decls "simulate" (* cost model, simulate, verify, store *)
let s_merge = declare stage_decls "merge" (* admission, an accepted best's build, profile, metrics *)
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
let c_refresh_replays = declare counter_decls "refresh_replays" (* replayed pops that refreshed *)
let c_expansion_replays = declare counter_decls "expansion_replays" (* replayed pops *)
let c_built = declare counter_decls "built" (* rewrite children whose graph was built *)
let c_init_replays = declare counter_decls "init_replays" (* initial states read back *)

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

(** Fraction of evaluations served by the simulation cache (0 when none
    ran). *)
let sim_hit_rate (st : stats) =
  ratio st.n_sim_hit (st.n_sim_hit + st.n_sim_miss)

(** Fraction of scheduled nodes the incremental rescheduler actually
    re-placed (0 when nothing was scheduled). *)
let resched_frac (st : stats) = ratio st.n_resched_nodes st.n_sched_nodes

(* the ladder step recorded when the time budget ends the loop *)
let best_so_far = "best-so-far"

let budget_ended (st : stats) =
  List.exists (fun (_, step) -> step = best_so_far) st.degrade_steps

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

(** BetterThan of Algorithm 3, on a state's (peak bytes, latency), all
    the queue reads of it: compare the constrained objective clamped at
    the limit first, the free objective second.  [delta] relaxes the
    right-hand side (the paper's δ = 1.1 queue-admission slack). *)
let key (mode : mode) ((peak, latency) : int * float) : float * float =
  match mode with
  | Min_latency { mem_limit } -> (float_of_int (max peak mem_limit), latency)
  | Min_memory { lat_limit } -> (Float.max latency lat_limit, float_of_int peak)

let better_than (mode : mode) ?(delta = 1.0) a b : bool =
  let ka1, ka2 = key mode a and kb1, kb2 = key mode b in
  (ka1, ka2) < (delta *. kb1, delta *. kb2)

(** The paper's δ = 1.1 queue-admission slack of the push test. *)
let queue_delta = 1.1

module Pq = Map.Make (struct
  type t = float * float

  let compare = compare
end)

(** A queued candidate.  A simulation-cache hit is queued [Pending]: its
    cached outcome, which is all the queue reads, and the build of its
    state (its proposal built, the cached schedule and hot spots decoded
    onto it), run the first time the state itself is needed: when it is
    popped, accepted as the best, or snapshotted.  Each of these takes
    the entry off the queue or puts its [Built] state in its place, so
    a build runs once. *)
type entry =
  | Built of Mstate.t
  | Pending of { peak : int; latency : float; build : unit -> Mstate.t }

let measured (s : Mstate.t) = (s.peak_mem, s.latency)

let entry_measured = function
  | Built s -> measured s
  | Pending p -> (p.peak, p.latency)

let entry_state = function Built s -> s | Pending p -> p.build ()

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

let max_per_rule = 6

type config = {
  ablation : ablation;
  sched_states : int;
  time_budget : float;
  max_iterations : int;
  diversify_pops : bool;
  use_sweep_rules : bool;
  verify_states : bool;
  jobs : int;
  sim_cache : Sim_cache.t option;
  checkpoint : checkpoint option;
  profile : Profile.t option;
  harvest :
    (iteration:int -> peak:int -> latency:float -> state:(unit -> Mstate.t) ->
    unit)
    option;
  poll : iteration:int -> best:Mstate.t -> [ `Continue | `Stop ];
}

let default_config =
  {
    ablation = default_ablation;
    sched_states = 0;
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

(** A candidate M-state as built.  [b_rewrite] is a rewritten graph's
    one {!Graph_index}: prune, WL hash, accounting, rescheduling and
    simulation all read it.  An F-Tree mutation keeps the popped state's
    graph ([None]): it takes the pop's WL hash and is evaluated on the
    pop's index. *)
type built = {
  b_rewrite : Graph_index.t option;
  b_ftree : Ftree.t;
  b_mutated : Int_set.t;  (** old nodes affected, for incremental sched *)
}

(** A candidate M-state.  A rewrite's build forces its rule site,
    indexes the rewritten graph and prunes the popped F-Tree to it (the
    [built] counter).  A pop that hashes its candidates builds each
    where it is proposed ([Ready]); a replayed pop, whose record holds
    every candidate's codes, builds one only where it is read
    ([Deferred]), and so once: a miss before it is evaluated, a hit
    when its entry is built. *)
type build = Ready of built | Deferred of (unit -> built)

type proposal = { p_build : build; p_stale : bool }

(** A proposal's build: a ready one's, or a deferred one's run here,
    timed in [time]'s stage when given (and not when the caller's own
    stage already times it). *)
let force ?time (p : proposal) : built =
  match (p.p_build, time) with
  | Ready b, _ -> b
  | Deferred build, Some (tb, stage) -> timed tb stage build
  | Deferred build, None -> build ()

(** What the pop's keys in the simulation cache share, built with the
    pop's context only when the search has a cache. *)
type keyed = {
  sim : Sim_cache.t;
  sched_hash : int64;  (** digest of the popped state's schedule *)
  pop_key : int64;  (** the pop's record's key ({!pop_key}) *)
}

(** The input graph as a run reads it: one index and its WL labels,
    built once.  The trajectory fingerprint, the initial record's key,
    the initial state and its dedup hash read them, and so does every
    pop of a state whose graph is the input graph itself (the initial
    state's, and an F-Tree mutation's of it). *)
type input = { in_ix : Graph_index.t; in_labels : Wl_hash.labels }

(** What a pop's proposals and their hashes read from the popped state,
    built serially before [generate], then only read.  Nothing of it is
    kept on the state, so a queued state holds no labels. *)
type pop = {
  ix : Graph_index.t;
      (** the popped graph's index, its order (and so its consumers by
          slot) and {!Reach} forced *)
  position : int array;  (** id -> schedule position, for the rule sites *)
  labels : Wl_hash.labels;  (** each rewrite is relabelled from these *)
  keyed : keyed option;  (** [None] when the search has no cache *)
}

(* one int folded into a cache key *)
let mix h x = Util.hash_combine h (Int64.of_int x)

(** The popped graph as the pop's record key reads it: each node id, in
    the index's order, with its WL label and its operand ids. *)
let graph_key ix labels : int64 =
  let nodes = Graph_index.nodes ix in
  Array.fold_left
    (fun h v ->
      let ins = nodes.(v).inputs in
      let h = Util.hash_combine (mix h v) (Wl_hash.label labels v) in
      Array.fold_left mix (mix h (Array.length ins)) ins)
    0x72656672L (Graph_index.order ix)

(** Does the pop refresh its F-Tree (Algorithm 3, lines 13-14)? *)
let refreshes (cfg : config) (s : Mstate.t) =
  s.ftree_stale && cfg.ablation.use_ftree_heuristic

(** Key of a pop's record in the simulation cache, folded before the
    refresh: a digest of exactly what the refresh, [generate],
    {!proposal_hash} and {!evaluation_key} read — the graph, pinned by
    node id ({!graph_key}), the schedule's digest, the popped F-Tree with
    every entry (members, dims, [n], parent and children: the refresh
    reads the enabled entries, {!Ftree.mutations_on} and {!Ftree.prune}
    the disabled ones too), whether the pop refreshes and [max_level],
    the rule knobs [max_per_rule], [use_sweep_rules] and
    [restrict_sched_rules], the effective DP budget and the hardware.
    The hot-spot set is read but not folded: it is the simulation's of
    the graph under the F-Tree's accounting and the schedule, on the
    hardware, all of which the key digests (an initial state's comes
    from simulating its schedule with no tree, which accounts as its
    constructed tree does: every entry of a constructed tree is
    disabled).  Mode and limit are not read, so they are not in it. *)
let pop_key (cfg : config) ~graph_key ~sched_hash ~sched_states ~hw
    (s : Mstate.t) : int64 =
  let set h vs =
    Int_set.fold (fun v h -> mix h v) vs (mix h (Int_set.cardinal vs))
  in
  let entry h i =
    let e = Ftree.entry s.ftree i in
    let f = e.fission in
    let h = set (mix (mix h f.n) e.parent) f.members in
    let h =
      Int_map.fold (fun v d h -> mix (mix h v) d) f.dims
        (mix h (Int_map.cardinal f.dims))
    in
    List.fold_left mix (mix h (List.length e.children)) e.children
  in
  let n = Ftree.n_entries s.ftree in
  let h = Util.hash_combine (mix graph_key 0x706f70) sched_hash in
  let h = List.fold_left entry (mix h n) (List.init n Fun.id) in
  let bit b i = if b then 1 lsl i else 0 in
  let flags =
    bit (refreshes cfg s) 0
    lor bit cfg.use_sweep_rules 1
    lor bit cfg.ablation.restrict_sched_rules 2
  in
  let h = mix (mix h flags) cfg.ablation.max_level in
  Util.hash_combine (mix (mix h max_per_rule) sched_states) hw

(** Key of a run's initial-state record in the simulation cache, beside
    the pop records: a digest of exactly what {!start} reads to build
    the initial M-state — the input graph, pinned by node id
    ({!graph_key} on its index and labels), [max_level], the DP budget
    [sched_states], whether the F-Tree heuristic builds the tree and
    the hardware.  Mode and limit are not read, so a memory and a
    latency search of one model share the record. *)
let init_key (cfg : config) ~hw ix labels : int64 =
  let h = mix (graph_key ix labels) 0x696e6974 in
  let h = mix (mix h cfg.ablation.max_level) cfg.sched_states in
  Util.hash_combine (mix h (Bool.to_int cfg.ablation.use_ftree_heuristic)) hw

(** The pop's context on [ix], the popped state's index: the order,
    closure and positions timed in [generate], the labels (the input's
    when [ix] is its index) and the graph fold in [hash], the schedule
    digest and the pop key in [lookup]; [sched_states] is the effective
    DP budget. *)
let pop_context (cfg : config) tb ~sched_states ~hw (inp : input)
    (s : Mstate.t) ix : pop =
  let position =
    timed tb s_generate (fun () ->
        ignore (Graph_index.order ix : int array);
        ignore (Graph_index.reach ix : Reach.t);
        Magis_sched.Incremental.positions ix s.schedule)
  in
  let labels =
    if ix == inp.in_ix then inp.in_labels
    else timed tb s_hash (fun () -> Wl_hash.labels_on ix)
  in
  let keyed =
    Option.map
      (fun sim ->
        let graph_key = timed tb s_hash (fun () -> graph_key ix labels) in
        timed tb s_lookup @@ fun () ->
        let sched_hash = Util.hash_int_list s.schedule in
        { sim; sched_hash;
          pop_key = pop_key cfg ~graph_key ~sched_hash ~sched_states ~hw s })
      cfg.sim_cache
  in
  { ix; position; labels; keyed }

(** What a pop's misses read: its rescheduling context and base costs,
    built serially after the probes and only when a survivor missed. *)
let resched_context (cost : Op_cost.t) tb (s : Mstate.t) (cx : pop) =
  timed tb s_reschedule (fun () ->
      ( Magis_sched.Incremental.parent ~position:cx.position cx.ix s.schedule,
        Op_cost.costs_on cost cx.ix ))

(** The refreshed F-Tree of a pop that {!refreshes}, rebuilt on the pop's
    index; [None] for a pop that does not. *)
let rebuild (cfg : config) (s : Mstate.t) (cx : pop) : Ftree.t option =
  if refreshes cfg s then
    Some
      (Ftree.refresh_on ~max_level:cfg.ablation.max_level cx.ix
         ~old_tree:s.ftree ~hotspots:s.hotspots)
  else None

(** How a pop's candidates get their dedup hashes and, with a cache,
    their evaluation keys. *)
type codes =
  | Hashed  (** no cache: each candidate is hashed, and not keyed *)
  | Keyed of keyed * Ftree.t option
      (** each candidate is hashed and keyed, and the pop's record is
          stored under its key with the refreshed tree, [Some] when the
          pop refreshed *)
  | Replayed of keyed * string * string
      (** each is read from the pop's record: its bytes, then its
          codes *)

(** The popped state with a current F-Tree (Algorithm 3, lines 13-14),
    and how its candidates get their codes.  When the search's cache
    holds a record under the pop's key ({!pop_key}), the record gives
    both: the refreshed tree, if the pop refreshes, and the codes.
    Otherwise a pop that refreshes rebuilds its tree.  The record's
    bytes come only from this process, under keys only {!pop_key}
    makes. *)
let refresh (cfg : config) tb (s : Mstate.t) (cx : pop) : Mstate.t * codes =
  timed tb s_refresh @@ fun () ->
  let current tree =
    { s with ftree = Option.value tree ~default:s.ftree; ftree_stale = false }
  in
  match cx.keyed with
  | None -> (current (rebuild cfg s cx), Hashed)
  | Some k -> (
      match Sim_cache.record k.sim k.pop_key with
      | None ->
          let tree = rebuild cfg s cx in
          (current tree, Keyed (k, tree))
      | Some bytes ->
          let tree, table =
            (Marshal.from_string bytes 0 : Ftree.t option * string)
          in
          (current tree, Replayed (k, bytes, table)))

(** An initial-state record: the state less its graph — its F-Tree,
    schedule, peak, latency and hot spots — marshalled together. *)
let encode_init (s : Mstate.t) =
  Marshal.to_string (s.ftree, s.schedule, s.peak_mem, s.latency, s.hotspots) []

(** The initial state of [graph] read back from its record, which
    {!encode_init} wrote in this process under a key only {!init_key}
    makes. *)
let decode_init (graph : Graph.t) bytes : Mstate.t =
  let ftree, schedule, peak_mem, latency, hotspots =
    (Marshal.from_string bytes 0
      : Ftree.t * int list * int * float * Int_set.t)
  in
  { graph; ftree; schedule; peak_mem; latency; hotspots; ftree_stale = false }

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
            { p_build =
                Ready { b_rewrite = None; b_ftree = ftree'; b_mutated = affected };
              p_stale = s.ftree_stale })
    muts

(** Proposals reached by graph rewrites (scheduling-based and TASO
    rules), matched on one view of the pop's index, kept only where a
    rule's cap keeps them, and built at once when [eager]. *)
let rewrite_proposals (cfg : config) tb ~eager (s : Mstate.t) (cx : pop) :
    proposal list =
  let pos = cx.position in
  let ctx =
    {
      Rule.hotspots = s.hotspots;
      frozen = Ftree.frozen_region s.ftree;
      schedule_pos = (fun v -> if pos.(v) < 0 then None else Some pos.(v));
      max_per_rule;
      restrict_to_hotspots = cfg.ablation.restrict_sched_rules;
    }
  in
  let view = Rule.view ~pos ctx cx.ix in
  let rules =
    (if cfg.use_sweep_rules then Sched_rules.all else Sched_rules.basic)
    @ Taso_rules.all
  in
  let build (site : Rule.site) =
    let rw = site () in
    let ix = Graph_index.of_graph rw.graph in
    bump tb c_built 1;
    { b_rewrite = Some ix; b_ftree = Ftree.prune ix s.ftree;
      b_mutated = rw.touched_old }
  in
  List.concat_map
    (fun (rule : Rule.t) ->
      let sites = Rule.kept_sites view rule in
      bump tb c_transforms (List.length sites);
      List.map
        (fun site ->
          { p_build =
              (if eager then Ready (build site)
               else Deferred (fun () -> build site));
            p_stale = true })
        sites)
    rules

(** Dedup key of a state: its graph's WL hash ⊕ F-Tree fingerprint. *)
let state_hash wl (ftree : Ftree.t) : int64 =
  Util.hash_combine wl (Ftree.fingerprint ftree)

(** [f ()], a state's dedup hash computed or read, timed in [hash] and
    counted once it is known. *)
let counted_hash tb f : int64 =
  let h = timed tb s_hash f in
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

(** A proposal's dedup hash.  A rewrite is relabelled from the pop's
    labels, which forces the rewrite index's topological order
    (rescheduling partitions along it; on a pop whose record is
    replayed, no rewrite is relabelled, and a miss's reschedule forces
    the order instead); an F-Tree mutation takes the pop's hash. *)
let proposal_hash (cx : pop) (p : proposal) : int64 =
  let b = force p in
  let wl =
    match b.b_rewrite with
    | None -> Wl_hash.hash_of cx.labels
    | Some ix ->
        Wl_hash.hash_of
          (Wl_hash.relabel_on ~parent_nodes:(Graph_index.nodes cx.ix)
             ~parent:cx.labels ix)
  in
  state_hash wl b.b_ftree

(** A proposal's evaluation key in the simulation cache, from its dedup
    hash [h]; [sched_states] is the effective DP budget. *)
let evaluation_key (k : keyed) ~sched_states ~hw h (p : proposal) : int64 =
  Sim_cache.key ~state:h ~parent_sched:k.sched_hash
    ~mutated:(Util.hash_int_list (Int_set.elements (force p).b_mutated))
    ~sched_states ~hw

(** A pop's record: the refreshed tree ([Some] when the pop refreshed)
    and each proposal's (dedup hash, evaluation key), in proposal order,
    16 bytes apiece, marshalled together. *)
let encode_record (tree : Ftree.t option) codes =
  let b = Bytes.create (16 * List.length codes) in
  List.iteri
    (fun i (h, key) ->
      Bytes.set_int64_le b (16 * i) h;
      Bytes.set_int64_le b ((16 * i) + 8) key)
    codes;
  Marshal.to_string (tree, Bytes.to_string b) []

let built_graph (s : Mstate.t) (b : built) =
  match b.b_rewrite with Some ix -> Graph_index.graph ix | None -> s.graph

(** The entry of a proposal whose cache probe hit with [(peak, latency,
    decode)]: its state's build decodes the cached value onto the
    proposal.  A deferred proposal is forced with its state, under the
    stage that builds the entry; a ready one gives its graph and F-Tree
    to the state's build, which then holds neither the proposal nor its
    index. *)
let hit (s : Mstate.t) (p : proposal) (peak, latency, decode) : entry =
  let ftree_stale = p.p_stale in
  let state (b : built) =
    let graph = built_graph s b and ftree = b.b_ftree in
    fun () -> Mstate.of_cached ~ftree_stale graph ftree (decode ())
  in
  let build =
    match p.p_build with
    | Ready b -> state b
    | Deferred _ -> fun () -> state (force p) ()
  in
  Pending { peak; latency; build }

(** Evaluate a proposal that missed (or had no cache), built as [b]: incremental
    reschedule + simulation on the proposal's index (a mutation's is
    the pop's own, [cx.ix]), stored under [key] in [cfg.sim_cache]
    when there is one; [sched_states] is the effective DP budget.  It
    counts into [tb] only once the state is built and stored, so a
    retried evaluation is counted once. *)
let evaluate_proposal (cfg : config) cost tb ~sched_states
    ~iteration ~key (cx : pop) (parent, costs) (s : Mstate.t) (p : proposal)
    (b : built) : Mstate.t =
  let graph = built_graph s b in
  let ix = Option.value b.b_rewrite ~default:cx.ix in
  (* the candidate's operator costs (a node inherits the pop's base cost
     when it and its operands kept their records) and fission accounting
     are the simulator's cost and size model *)
  let acc =
    timed tb s_simulate (fun () ->
        let base =
          Op_cost.inherited_cost_on cost ~parent_nodes:(Graph_index.nodes cx.ix)
            ~parent_costs:costs ix
        in
        Ftree.accounting ~base cost ix b.b_ftree)
  in
  let schedule, (rstats : Magis_sched.Incremental.stats) =
    timed tb s_reschedule (fun () ->
        Magis_sched.Incremental.reschedule ~max_states:sched_states
          ~parent ~new_index:ix
          ~mutated_old:b.b_mutated ~size_of:acc.size_of ())
  in
  timed tb s_simulate @@ fun () ->
  let s' =
    Mstate.evaluate ~ftree_stale:p.p_stale ~acc cost graph
      b.b_ftree schedule
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
let ckpt_version = 5

(** The loop state, which is also the checkpoint: the loop reads and
    writes this one record and a snapshot saves it as it is, so
    restoring it continues the search bit-identically — frontier, dedup
    set, diversification RNG, pop parity, accounting and the
    degradation level all survive. *)
type snapshot = {
  mutable snap_best : Mstate.t;
  snap_initial : Mstate.t;
  mutable snap_queue : entry list Pq.t;  (** only [Built] in a snapshot *)
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
    It builds every pending entry first: a pending build is a closure,
    which does not marshal.  Counted before the save, so the snapshot's
    table includes the snapshot itself. *)
let write_snapshot ~path ~fingerprint st =
  bump st.snap_table c_checkpoints 1;
  timed st.snap_table s_checkpoint (fun () ->
      st.snap_queue <-
        Pq.map (List.map (fun e -> Built (entry_state e))) st.snap_queue;
      Checkpoint.save ~path ~version:ckpt_version ~fingerprint st)

(** What {!save} needs of a run with a checkpoint configured. *)
type end_state = {
  es_state : snapshot;
  es_path : string;
  es_fingerprint : int64;
}

type result = {
  mode : mode;
  best : Mstate.t;
  initial : Mstate.t;
  stats : stats;
  history : (float * int * float) list;
  diagnostics : Diagnostic.t list;
  interrupted : bool;
  resumed : bool;
  end_state : end_state option;
}

type relative = Overhead of float | Mem_ratio of float

let mode_of rel ~peak ~latency =
  match rel with
  | Overhead o -> Min_memory { lat_limit = latency *. (1.0 +. o) }
  | Mem_ratio r ->
      Min_latency { mem_limit = int_of_float (float_of_int peak *. r) }

let limits = function
  | Min_latency { mem_limit } -> (mem_limit, infinity)
  | Min_memory { lat_limit } -> (max_int, lat_limit)

(** Does the best state meet its mode's limit?  In either mode a state
    over the limit ranks by how far over it is, so when no state meets
    the limit the search returns the nearest miss. *)
let limit_met (r : result) =
  let mem_limit, lat_limit = limits r.mode in
  r.best.peak_mem <= mem_limit && r.best.latency <= lat_limit

(* [r.stats.table] is the saved record's, so it already counts the
   save and the builds it ran, which are published as the metrics; the
   stats' copied fields are refreshed from it *)
let save (r : result) =
  let es =
    match r.end_state with
    | Some es -> es
    | None -> invalid_arg "Search.save: the run configured no checkpoint"
  in
  let t0 = Unix.gettimeofday () in
  let tb = r.stats.table in
  let before = Array.copy tb.counts in
  write_snapshot ~path:es.es_path ~fingerprint:es.es_fingerprint es.es_state;
  Array.iteri
    (fun i m -> Metrics.add m (tb.counts.(i) - before.(i)))
    counter_metrics;
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
    this run's trajectory: the hardware model, the input graph (its WL
    hash [wl]), the mode (with its limit) and every trajectory-relevant
    configuration knob.  Caching and verification flags are excluded — they are
    result-preserving by construction — as are the retired [jobs] and
    the observation-only hooks ([profile], [harvest], [poll]). *)
let trajectory_fingerprint_of (cfg : config) (mode : mode) ~(hw : int64)
    (wl : int64) : int64 =
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
  let h = Util.hash_combine wl hw in
  let h = Util.hash_combine h (mode_fingerprint mode) in
  let h = Util.hash_combine h (Int64.of_int cfg.sched_states) in
  let h = Util.hash_combine h (Int64.of_int max_per_rule) in
  let h = Util.hash_combine h (Int64.of_int cfg.ablation.max_level) in
  Util.hash_combine h (Int64.of_int flags)

(* {!trajectory_fingerprint_of} the graph's WL hash *)
let trajectory_fingerprint cfg mode ~hw graph =
  trajectory_fingerprint_of cfg mode ~hw (Wl_hash.hash graph)

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

(** The initial M-state of the input graph: read back from its record
    in the search's cache when there is one (the [init_replays]
    counter; under [verify_states] it is recomputed and compared),
    otherwise built on the input's index and, with a cache, stored
    under {!init_key}.  Its record's lookup, like a pop record's, visits
    no fault site. *)
let initial (cfg : config) (cost : Op_cost.t) tb ~hw (inp : input) : Mstate.t =
  let fresh () =
    let s =
      Mstate.init_on ~max_level:cfg.ablation.max_level
        ~sched_states:cfg.sched_states cost inp.in_ix
    in
    if cfg.ablation.use_ftree_heuristic then s
    else { s with ftree = Ftree.construct_naive inp.in_ix }
  in
  match cfg.sim_cache with
  | None -> fresh ()
  | Some sim -> (
      let key = init_key cfg ~hw inp.in_ix inp.in_labels in
      match Sim_cache.record sim key with
      | None ->
          let s = fresh () in
          Sim_cache.add_record sim key (encode_init s);
          s
      | Some bytes ->
          if cfg.verify_states && encode_init (fresh ()) <> bytes then
            raise
              (Verification_failure
                 (Printf.sprintf
                    "replayed initial state (key %016Lx) differs from its \
                     recomputation"
                    key));
          bump tb c_init_replays 1;
          decode_init (Graph_index.graph inp.in_ix) bytes)

(** The loop state of a fresh run, accounted in [tb]: the initial
    M-state is the best, the queue's one entry and the dedup set's one
    hash.  [elapsed ()] is the run's clock. *)
let start (cfg : config) (cost : Op_cost.t) (mode : mode) (inp : input) tb ~hw
    ~elapsed : snapshot =
  let init =
    timed tb s_init @@ fun () ->
    let s = initial cfg cost tb ~hw inp in
    if cfg.verify_states then begin
      Magis_analysis.Hooks.assert_state ~what:"initial M-state" s.graph
        s.schedule;
      let acc = Ftree.accounting cost inp.in_ix s.ftree in
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
    (counted_hash tb (fun () ->
         state_hash (Wl_hash.hash_of inp.in_labels) init.ftree))
    ();
  {
    snap_best = init;
    snap_initial = init;
    snap_queue = Pq.singleton (key mode (measured init)) [ Built init ];
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

(** Run the search in the mode [mode_on] reads off the run's index of
    the input graph.  Returns the best state found within the time
    budget, the initial state, the table and the improvement history. *)
let search (config : config) (cost : Op_cost.t)
    (mode_on : Graph_index.t -> mode) (graph : Graph.t) : result =
  if config.jobs <> 1 then
    invalid_arg "Search.run: config.jobs is retired and must be 1";
  let t0 = Unix.gettimeofday () in
  let tb = fresh_table () in
  let hw, inp, mode, fingerprint, loaded =
    timed tb s_init @@ fun () ->
    let hw = Hardware.fingerprint cost.hw in
    let ix = Graph_index.of_graph graph in
    let mode = mode_on ix in
    let inp = { in_ix = ix; in_labels = Wl_hash.labels_on ix } in
    let fingerprint =
      trajectory_fingerprint_of config mode ~hw (Wl_hash.hash_of inp.in_labels)
    in
    let loaded : snapshot option =
      match config.checkpoint with
      | Some { ckpt_path; ckpt_resume = true; _ }
        when Checkpoint.exists ckpt_path ->
          Some
            (Checkpoint.load ~path:ckpt_path ~version:ckpt_version ~fingerprint)
      | _ -> None
    in
    (hw, inp, mode, fingerprint, loaded)
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
        ( start config cost mode inp tb ~hw ~elapsed:(fun () ->
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
  let push e =
    st.snap_queue <-
      Pq.update (key mode (entry_measured e))
        (function None -> Some [ e ] | Some l -> Some (e :: l))
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
  let expand ~sched_states (popped : Mstate.t) (cx : pop) =
    let s, codes = refresh config tb popped cx in
    (* a replayed pop reads its candidates' codes from its record, so
       builds each rewrite only where it is read, unless [verify_states]
       recomputes the record *)
    let eager =
      match codes with
      | Replayed _ -> config.verify_states
      | Hashed | Keyed _ -> true
    in
    let proposals =
      timed tb s_generate @@ fun () ->
      (if Ftree.n_entries s.ftree > 0 then ftree_proposals tb s cx else [])
      @ rewrite_proposals config tb ~eager s cx
    in
    (* A replayed record stands for the pop's refresh and its codes:
       under [verify_states] the whole record is checked against one
       computed afresh. *)
    (match codes with
    | Replayed (k, bytes, _) ->
        if config.verify_states then
          timed tb s_hash (fun () ->
              let codes =
                List.map
                  (fun p ->
                    let h = proposal_hash cx p in
                    (h, evaluation_key k ~sched_states ~hw h p))
                  proposals
              in
              if encode_record (rebuild config popped cx) codes <> bytes
              then
                raise
                  (Verification_failure
                     (Printf.sprintf
                        "replayed pop record (key %016Lx) differs from its \
                         refresh and hashes"
                        k.pop_key)));
        bump tb c_expansion_replays 1;
        if refreshes config popped then bump tb c_refresh_replays 1
    | Hashed | Keyed _ -> ());
    (* Hash test FIRST: duplicate graphs skip scheduling and simulation
       entirely (the Fig. 15 "Filtered" column).  With a cache each
       candidate also gets its evaluation key.  Each execution of a
       candidate's hash or evaluation visits the [candidate] fault
       site. *)
    let code i p =
      match codes with
      | Hashed -> (counted_hash tb (fun () -> proposal_hash cx p), None)
      | Keyed (k, _) ->
          let h = counted_hash tb (fun () -> proposal_hash cx p) in
          ( h,
            Some
              (timed tb s_lookup (fun () ->
                   evaluation_key k ~sched_states ~hw h p)) )
      | Replayed (_, _, table) ->
          let h =
            counted_hash tb (fun () -> String.get_int64_le table (16 * i))
          in
          (h, Some (String.get_int64_le table ((16 * i) + 8)))
    in
    let hashed =
      List.mapi (fun i p -> (i, p)) proposals
      |> List.filter_map (fun (i, p) ->
             supervise ~what:(Printf.sprintf "hash candidate %d" i)
               (fun p ->
                 Fault.hit "candidate";
                 let h, key = code i p in
                 (i, p, h, key))
               p)
    in
    (* A computed record is stored only when every proposal hashed: a
       quarantined hash would shift the positions after it. *)
    (match codes with
    | Keyed (k, tree) when List.length hashed = List.length proposals ->
        timed tb s_hash (fun () ->
            Sim_cache.add_record k.sim k.pop_key
              (encode_record tree
                 (List.map (fun (_, _, h, key) -> (h, Option.get key)) hashed)))
    | Hashed | Keyed _ | Replayed _ -> ());
    (* Dedup against every state seen so far: first occurrence wins. *)
    let survivors =
      timed tb s_dedup @@ fun () ->
      List.filter
        (fun (_, _, h, _) ->
          let seen = Hashtbl.mem st.snap_seen h in
          if seen then bump tb c_filtered 1
          else Hashtbl.replace st.snap_seen h ();
          not seen)
        hashed
    in
    (* Probe the cache once per survivor: a hit is its pending entry,
       [Left], a miss the key its evaluation is stored under, [Right]. *)
    let probed =
      match cx.keyed with
      | None ->
          List.map (fun (i, p, _, _) -> (i, p, Either.Right None)) survivors
      | Some { sim; _ } ->
          let probe (i, (p : proposal), _, key) =
            timed tb s_lookup @@ fun () ->
            match Option.bind key (Sim_cache.probe sim) with
            | None -> (i, p, Either.Right key)
            | Some outcome ->
                bump tb c_sim_hits 1;
                (i, p, Either.Left (hit s p outcome))
          in
          List.filter_map
            (fun ((i, _, _, _) as c) ->
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
          | Either.Left e, _ -> Some e
          | Either.Right _, None -> None (* quarantined with the context *)
          | Either.Right key, Some rcx ->
              (* built once, outside the retried evaluation *)
              let b = force ~time:(tb, s_generate) p in
              supervise ~what:(Printf.sprintf "evaluate candidate %d" i)
                (fun p ->
                  Fault.hit "candidate";
                  Built
                    (evaluate_proposal config cost tb ~sched_states ~iteration
                       ~key cx rcx s p b))
                p)
        probed
    in
    (* An accepted best is built, and queued as that build. *)
    let accept e =
      let s' = entry_state e in
      (* only accepted bests reach the caller, so proving their memory
         plan interference-free here covers every reported result
         without paying the allocator replay per candidate *)
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
        (elapsed (), s'.peak_mem, s'.latency) :: st.snap_history;
      Built s'
    in
    (* Merge into best/queue, in candidate order, on each entry's
       (peak, latency): an entry is built here only when it is accepted
       as the best. *)
    timed tb s_merge @@ fun () ->
    List.iter
      (fun e ->
        let m = entry_measured e in
        (* observation-only side channel: sees every evaluated
           candidate in candidate order, never feeds back into
           best/queue *)
        Option.iter
          (fun f ->
            f ~iteration ~peak:(fst m) ~latency:(snd m) ~state:(fun () ->
                entry_state e))
          config.harvest;
        let e =
          if better_than mode m (measured st.snap_best) then accept e else e
        in
        if better_than mode ~delta:queue_delta m (measured st.snap_best) then
          push e)
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
      let e =
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
        | Some e ->
            bump tb c_iterations 1;
            e
      in
      (* a pending entry is built as it is popped *)
      let s =
        match e with Built s -> s | Pending p -> timed tb s_generate p.build
      in
      if Trace.enabled () then
        timed tb s_pop (fun () ->
            Trace.instant ~cat:"search"
              ~args:
                [ ("iteration", string_of_int (count tb c_iterations));
                  ("peak_mem", string_of_int s.peak_mem);
                  ("latency", Printf.sprintf "%.9g" s.latency);
                  ("entries", string_of_int (Ftree.n_entries s.ftree));
                  ( "enabled",
                    string_of_int (List.length (Ftree.enabled_indices s.ftree))
                  );
                  ("stale", string_of_bool s.ftree_stale) ]
              "pop");
      (* One index of the popped graph serves the pop: its context, the
         F-Tree refresh and mutations, and the rule sites.  The input
         graph's is the run's. *)
      let ix =
        if s.graph == graph then inp.in_ix
        else timed tb s_refresh (fun () -> Graph_index.of_graph s.graph)
      in
      let sched_states =
        ladder_sched_states ~level:st.snap_degrade config.sched_states
      in
      (* The pop's context, with its record key, is built before the
         refresh and the candidates read it (the misses' part in
         [expand]).  A context that keeps failing to build quarantines
         the pop, which then proposes nothing. *)
      Option.iter (expand ~sched_states s)
        (supervise ~what:"pop context"
           (pop_context config tb ~sched_states ~hw inp s)
           ix);
      match config.checkpoint with
      | Some { ckpt_path; ckpt_every; _ }
        when elapsed () -. !last_ckpt >= ckpt_every ->
          st.snap_elapsed <- elapsed ();
          write_snapshot ~path:ckpt_path ~fingerprint st;
          last_ckpt := elapsed ()
      | _ -> ()
    done
   with Exit -> ());
  if !out_of_time then record_step best_so_far;
  publish ();
  st.snap_elapsed <- elapsed ();
  {
    mode;
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

let run ?(config = default_config) cost mode graph =
  search config cost (fun _ -> mode) graph

(* A search whose limit is [rel] over the baseline, simulated on the
   run's index; a baseline that keeps failing sets no limit. *)
let relative ?(config = default_config) cost rel graph =
  search config cost
    (fun ix ->
      match Retry.run (fun () -> Simulator.baseline cost ix) with
      | Ok base -> mode_of rel ~peak:base.peak_mem ~latency:base.latency
      | Error f ->
          failwith
            (Printf.sprintf "baseline simulation failed after %d attempt(s): %s"
               f.attempts (Printexc.to_string f.exn)))
    graph

let optimize_memory ?config cost ~overhead graph =
  relative ?config cost (Overhead overhead) graph

let optimize_latency ?config cost ~mem_ratio graph =
  relative ?config cost (Mem_ratio mem_ratio) graph
