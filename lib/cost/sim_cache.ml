(** Simulation cache (see the interface for the keying discipline).

    Storage is delta-encoded: most cached evaluations are children of an
    already-cached parent state, and the incremental reschedule changes
    only a window of the parent schedule.  Instead of a full [int list]
    per entry, a child stores (shared parent schedule, common prefix
    length, rewritten middle, common suffix length).  Parent schedules
    are interned in a pool keyed by {!Magis_ir.Util.hash_int_list}, so
    all children of one parent alias a single physical list; the
    [Delta] constructor holds the interned list itself (not the pool
    key), so decoding never consults the pool and a pool hash collision
    can only cost sharing, never correctness.  Encoding is validated by
    reconstruct-and-compare at [add] time — any mismatch (or a delta
    bigger than the schedule itself) silently falls back to [Full].
    Chains stay depth 1: a delta's parent is always a materialized
    list. *)

open Magis_ir
module Metrics = Magis_obs.Metrics

let m_hits = Metrics.counter "sim_cache.hits"
let m_misses = Metrics.counter "sim_cache.misses"
let m_deltas = Metrics.counter "sim_cache.delta_entries"

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

type t = {
  tbl : entry Magis_par.Striped.t;
  pool : int list Magis_par.Striped.t;
  last : (int list * int list) option Atomic.t;
      (** the last list [intern] was given, and what it returned *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  fulls : int Atomic.t;
  deltas : int Atomic.t;
  resident : int Atomic.t;  (** ints held by codes + hotspots + pool *)
}

let create ?stripes () =
  {
    tbl = Magis_par.Striped.create ?stripes ();
    pool = Magis_par.Striped.create ?stripes ();
    last = Atomic.make None;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    fulls = Atomic.make 0;
    deltas = Atomic.make 0;
    resident = Atomic.make 0;
  }

let key ~state ~parent_sched ~mutated ~sched_states ~mode ~hw =
  let h = Util.hash_combine state parent_sched in
  let h = Util.hash_combine h mutated in
  let h = Util.hash_combine h (Int64.of_int sched_states) in
  let h = Util.hash_combine h mode in
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

(** Intern [sched] in the pool, returning the physical list every other
    child of the same parent shares.  Every child of one pop passes the
    same physical parent list, so the list the last call was given is
    recognized by physical equality before anything is hashed.  A
    (vanishingly unlikely) 64-bit hash collision just returns the
    caller's own list unshared. *)
let intern t sched =
  match Atomic.get t.last with
  | Some (given, pooled) when given == sched -> pooled
  | _ ->
      let h = Util.hash_int_list sched in
      let pooled =
        match Magis_par.Striped.find t.pool h with
        | Some s when s = sched -> s
        | Some _ -> sched
        | None ->
            Magis_par.Striped.add t.pool h sched;
            ignore (Atomic.fetch_and_add t.resident (List.length sched));
            sched
      in
      Atomic.set t.last (Some (sched, pooled));
      pooled

(* The codec alone, without the intern pool: the [Delta] parent is
   whatever physical list the caller passes.  Prefix and suffix are
   found by walking the two lists; only the child's middle is copied. *)
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

let encode t ?parent sched =
  match parent with
  | None -> Full sched
  | Some p -> Codec.encode ~parent:(intern t p) sched

(* ------------------------------------------------------------------ *)
(* Table operations                                                    *)
(* ------------------------------------------------------------------ *)

let find t k =
  Magis_resilience.Fault.hit "sim_cache";
  match Magis_par.Striped.find t.tbl k with
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
  let code = encode t ?parent v.schedule in
  let stored =
    match code with
    | Full s ->
        Atomic.incr t.fulls;
        List.length s
    | Delta { middle; _ } ->
        Atomic.incr t.deltas;
        Metrics.incr m_deltas;
        List.length middle + 2
  in
  ignore (Atomic.fetch_and_add t.resident (stored + List.length v.hotspots));
  Magis_par.Striped.add t.tbl k
    {
      e_code = code;
      e_peak_mem = v.peak_mem;
      e_latency = v.latency;
      e_hotspots = v.hotspots;
    }

let stats t = (Atomic.get t.hits, Atomic.get t.misses)

let hit_rate t =
  let h, m = stats t in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
let delta_stats t = (Atomic.get t.fulls, Atomic.get t.deltas)
let resident_ints t = Atomic.get t.resident

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0

let length t = Magis_par.Striped.length t.tbl

let clear t =
  Magis_par.Striped.clear t.tbl;
  Magis_par.Striped.clear t.pool;
  Atomic.set t.last None;
  Atomic.set t.fulls 0;
  Atomic.set t.deltas 0;
  Atomic.set t.resident 0
