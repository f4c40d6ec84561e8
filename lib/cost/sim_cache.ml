(** Simulation cache (see the interface for the keying discipline).

    Storage is delta-encoded: most cached evaluations are children of an
    already-cached parent state, and the incremental reschedule changes
    only a window of the parent schedule.  Instead of a full [int list]
    per entry, a child stores (parent schedule, common prefix length,
    rewritten middle, common suffix length).  The [Delta] constructor
    holds the parent list the caller passes: the search passes every
    child of one pop the popped state's one physical schedule, so those
    children share it.  Encoding is validated by reconstruct-and-compare
    at [add] time — any mismatch (or a delta bigger than the schedule
    itself) silently falls back to [Full].  Chains stay depth 1: a
    delta's parent is always a materialized list. *)

open Magis_ir
module Metrics = Magis_obs.Metrics

let m_hits = Metrics.counter "sim_cache.hits"
let m_misses = Metrics.counter "sim_cache.misses"
let m_deltas = Metrics.counter "sim_cache.delta_entries"
let g_trees = Metrics.gauge "sim_cache.trees"
let g_tree_words = Metrics.gauge "sim_cache.tree_words"

type value = {
  schedule : int list;
  peak_mem : int;
  latency : float;
  hotspots : int list;
}

type code =
  | Full of int list
  | Delta of { parent : int list; prefix : int; middle : int list; suffix : int }

type entry = {
  e_code : code;
  e_peak_mem : int;
  e_latency : float;
  e_hotspots : int list;
}

(* One lock around both tables: a search runs on one domain, so only a
   daemon's worker domains meet here.  [tree_words] sums the lengths of
   the stored trees, under the lock. *)
type t = {
  lock : Mutex.t;
  tbl : (int64, entry) Hashtbl.t;
  trees : (int64, int array) Hashtbl.t;
  mutable tree_words : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  fulls : int Atomic.t;
  deltas : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 1024;
    trees = Hashtbl.create 64;
    tree_words = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    fulls = Atomic.make 0;
    deltas = Atomic.make 0;
  }

let key ~state ~parent_sched ~mutated ~sched_states ~hw =
  let h = Util.hash_combine state parent_sched in
  let h = Util.hash_combine h mutated in
  let h = Util.hash_combine h (Int64.of_int sched_states) in
  Util.hash_combine h hw

(* ------------------------------------------------------------------ *)
(* Delta codec                                                         *)
(* ------------------------------------------------------------------ *)

let decode = function
  | Full s -> s
  | Delta { parent; prefix; middle; suffix } ->
      Util.take prefix parent
      @ middle
      @ Util.drop (List.length parent - suffix) parent

(* The [Delta] parent is the physical list the caller passes.  Prefix
   and suffix are found by walking the two lists; only the child's
   middle is copied. *)
module Codec = struct
  type nonrec code = code

  let encode ~(parent : int list) (sched : int list) =
    let np = List.length parent and nc = List.length sched in
    let rec common k p c =
      match (p, c) with
      | x :: p', y :: c' when Int.equal x y -> common (k + 1) p' c'
      | _ -> (k, p, c)
    in
    let prefix, parent_rest, sched_rest = common 0 parent sched in
    (* the suffix is the run of equal pairs that ends both lists, within
       their last [limit] elements *)
    let limit = min np nc - prefix in
    let rec run k p c =
      match (p, c) with
      | x :: p', y :: c' -> run (if Int.equal x y then k + 1 else 0) p' c'
      | _ -> k
    in
    let suffix =
      run 0
        (Util.drop (np - prefix - limit) parent_rest)
        (Util.drop (nc - prefix - limit) sched_rest)
    in
    let middle_len = nc - prefix - suffix in
    if middle_len >= nc then Full sched
    else
      let d =
        Delta { parent; prefix; middle = Util.take middle_len sched_rest; suffix }
      in
      if decode d = sched then d else Full sched

  let decode = decode
end

let encode ?parent sched =
  match parent with
  | None -> Full sched
  | Some parent -> Codec.encode ~parent sched

(* ------------------------------------------------------------------ *)
(* Table operations                                                    *)
(* ------------------------------------------------------------------ *)

let find t k =
  Magis_resilience.Fault.hit "sim_cache";
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl k) with
  | Some e ->
      Atomic.incr t.hits;
      Metrics.incr m_hits;
      Some
        {
          schedule = decode e.e_code;
          peak_mem = e.e_peak_mem;
          latency = e.e_latency;
          hotspots = e.e_hotspots;
        }
  | None ->
      Atomic.incr t.misses;
      Metrics.incr m_misses;
      None

let add ?parent t k v =
  let code = encode ?parent v.schedule in
  (match code with
  | Full _ -> Atomic.incr t.fulls
  | Delta _ ->
      Atomic.incr t.deltas;
      Metrics.incr m_deltas);
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.tbl k
        { e_code = code; e_peak_mem = v.peak_mem; e_latency = v.latency;
          e_hotspots = v.hotspots })

(* the gauges follow the cache that stored or cleared last *)
let publish_trees t =
  Metrics.set g_trees (float_of_int (Hashtbl.length t.trees));
  Metrics.set g_tree_words (float_of_int t.tree_words)

let tree t k = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.trees k)

let add_tree t k code =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.trees k) then begin
        Hashtbl.add t.trees k code;
        t.tree_words <- t.tree_words + Array.length code;
        publish_trees t
      end)

let tree_stats t =
  Mutex.protect t.lock (fun () -> (Hashtbl.length t.trees, t.tree_words))

let stats t = (Atomic.get t.hits, Atomic.get t.misses)

let hit_rate t =
  let h, m = stats t in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
let delta_stats t = (Atomic.get t.fulls, Atomic.get t.deltas)

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.tbl;
      Hashtbl.reset t.trees;
      t.tree_words <- 0;
      publish_trees t);
  Atomic.set t.fulls 0;
  Atomic.set t.deltas 0
