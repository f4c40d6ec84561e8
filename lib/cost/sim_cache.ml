(** Simulation cache (see the interface for the keying discipline).

    Storage is plain data: an evaluation's schedule and hot spots as
    [int array]s (one word per node, no list cells), a refreshed
    F-Tree and a pop's children as the bytes their caller passes. *)

open Magis_ir
module Metrics = Magis_obs.Metrics

let m_hits = Metrics.counter "sim_cache.hits"
let m_misses = Metrics.counter "sim_cache.misses"

type value = {
  schedule : int list;
  peak_mem : int;
  latency : float;
  hotspots : int list;
}

module Codec = struct
  type code = int array

  let encode ~parent:_ = Array.of_list
  let decode = Array.to_list
end

type entry = {
  e_schedule : Codec.code;
  e_peak_mem : int;
  e_latency : float;
  e_hotspots : int array;
}

(* A table of opaque payloads and the total length of its payloads;
   its two gauges follow the cache that stored or cleared last (a
   daemon's one cache). *)
type payloads = {
  tbl : (int64, string) Hashtbl.t;
  mutable bytes : int;
  g_count : Metrics.gauge;
  g_bytes : Metrics.gauge;
}

let payloads ~count ~bytes =
  { tbl = Hashtbl.create 64; bytes = 0;
    g_count = Metrics.gauge ("sim_cache." ^ count);
    g_bytes = Metrics.gauge ("sim_cache." ^ bytes) }

(* One lock around all three tables: a search runs on one domain, so
   only a daemon's worker domains meet here. *)
type t = {
  lock : Mutex.t;
  tbl : (int64, entry) Hashtbl.t;
  trees : payloads;
  children : payloads;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 1024;
    trees = payloads ~count:"trees" ~bytes:"tree_bytes";
    children = payloads ~count:"children" ~bytes:"children_bytes";
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let key ~state ~parent_sched ~mutated ~sched_states ~hw =
  let h = Util.hash_combine state parent_sched in
  let h = Util.hash_combine h mutated in
  let h = Util.hash_combine h (Int64.of_int sched_states) in
  Util.hash_combine h hw

let find t k =
  Magis_resilience.Fault.hit "sim_cache";
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl k) with
  | Some e ->
      Atomic.incr t.hits;
      Metrics.incr m_hits;
      Some
        {
          schedule = Codec.decode e.e_schedule;
          peak_mem = e.e_peak_mem;
          latency = e.e_latency;
          hotspots = Array.to_list e.e_hotspots;
        }
  | None ->
      Atomic.incr t.misses;
      Metrics.incr m_misses;
      None

let add t k v =
  let e =
    { e_schedule = Codec.encode ~parent:[] v.schedule; e_peak_mem = v.peak_mem;
      e_latency = v.latency; e_hotspots = Array.of_list v.hotspots }
  in
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.tbl k e)

(* under the lock *)
let publish (p : payloads) =
  Metrics.set p.g_count (float_of_int (Hashtbl.length p.tbl));
  Metrics.set p.g_bytes (float_of_int p.bytes)

let find_payload t (p : payloads) k = Mutex.protect t.lock (fun () -> Hashtbl.find_opt p.tbl k)

let add_payload t (p : payloads) k bytes =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem p.tbl k) then begin
        Hashtbl.add p.tbl k bytes;
        p.bytes <- p.bytes + String.length bytes;
        publish p
      end)

let payload_stats t (p : payloads) =
  Mutex.protect t.lock (fun () -> (Hashtbl.length p.tbl, p.bytes))

let clear_payloads (p : payloads) =
  Hashtbl.reset p.tbl;
  p.bytes <- 0;
  publish p

let tree t = find_payload t t.trees
let add_tree t = add_payload t t.trees
let tree_stats t = payload_stats t t.trees
let children t = find_payload t t.children
let add_children t = add_payload t t.children
let children_stats t = payload_stats t t.children

let stats t = (Atomic.get t.hits, Atomic.get t.misses)

let hit_rate t =
  let h, m = stats t in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.tbl;
      clear_payloads t.trees;
      clear_payloads t.children)
