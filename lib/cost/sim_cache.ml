(** Simulation cache (see the interface for the keying discipline).

    Storage is plain data: an evaluation's schedule and hot spots as
    [int array]s (one word per node, no list cells), a pop record as
    the bytes its caller passes. *)

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

(* One lock around both tables: a search runs on one domain, so only a
   daemon's worker domains meet here.  [record_bytes] is the total
   length of the stored pop records. *)
type t = {
  lock : Mutex.t;
  tbl : (int64, entry) Hashtbl.t;
  records : (int64, string) Hashtbl.t;
  mutable record_bytes : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* the pop records of the cache that stored or cleared last (a daemon's
   one cache) *)
let g_pops = Metrics.gauge "sim_cache.pops"
let g_pop_bytes = Metrics.gauge "sim_cache.pop_bytes"

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 1024;
    records = Hashtbl.create 64;
    record_bytes = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let key ~state ~parent_sched ~mutated ~sched_states ~hw =
  let h = Util.hash_combine state parent_sched in
  let h = Util.hash_combine h mutated in
  let h = Util.hash_combine h (Int64.of_int sched_states) in
  Util.hash_combine h hw

let probe t k =
  Magis_resilience.Fault.hit "sim_cache";
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl k) with
  | Some e ->
      Atomic.incr t.hits;
      Metrics.incr m_hits;
      let decode () =
        {
          schedule = Codec.decode e.e_schedule;
          peak_mem = e.e_peak_mem;
          latency = e.e_latency;
          hotspots = Array.to_list e.e_hotspots;
        }
      in
      Some (e.e_peak_mem, e.e_latency, decode)
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
let publish t =
  Metrics.set g_pops (float_of_int (Hashtbl.length t.records));
  Metrics.set g_pop_bytes (float_of_int t.record_bytes)

let record t k = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.records k)

let add_record t k bytes =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.records k) then begin
        Hashtbl.add t.records k bytes;
        t.record_bytes <- t.record_bytes + String.length bytes;
        publish t
      end)

let record_stats t =
  Mutex.protect t.lock (fun () -> (Hashtbl.length t.records, t.record_bytes))

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
      Hashtbl.reset t.records;
      t.record_bytes <- 0;
      publish t)
