(** Per-layer accounting: the search-phase split of [Search.stats], the
    check that the split adds up to the measured wall time, and the
    self-time table of a traced run. *)

open Magis
module M = Measure

let phase_sum (st : Search.stats) =
  st.t_transform +. st.t_sched +. st.t_simul +. st.t_hash +. st.t_bound

(* The phases are timed disjointly inside the search, so together they
   never exceed the wall time measured around it; [opt.other_s] is the
   remainder (queue, admission, F-Tree refresh, the baseline simulation). *)
let check_accounting r ~what st wall =
  let sum = phase_sum st in
  M.check r
    ~ok:(sum <= (wall *. 1.001) +. 1e-4)
    (lazy
      (Printf.sprintf "%s: search phases sum to %.6f s > wall %.6f s" what sum
         wall))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(** Mean per search of every [Search.stats] phase and count, and the
    part of the wall time no phase accounts for. *)
let search_layers r (stats : Search.stats list) walls =
  let n = float_of_int (max 1 (List.length stats)) in
  let sumf f = List.fold_left (fun acc st -> acc +. f st) 0.0 stats in
  let sumi f = List.fold_left (fun acc st -> acc + f st) 0 stats in
  let meanf f = sumf f /. n and meani f = float_of_int (sumi f) /. n in
  let open Search in
  M.layer r "rules.apply_s" "s" (meanf (fun st -> st.t_transform));
  M.layer r "rules.rewrites" "count" (meani (fun st -> st.n_transform));
  M.layer r "ir.wl_hash_s" "s" (meanf (fun st -> st.t_hash));
  M.layer r "ir.wl_hash_calls" "count" (meani (fun st -> st.n_hash));
  M.layer r "opt.dup_filtered" "count" (meani (fun st -> st.n_filtered));
  M.layer r "analysis.bound_s" "s" (meanf (fun st -> st.t_bound));
  M.layer r "analysis.bound_calls" "count" (meani (fun st -> st.n_bound_calls));
  M.layer r "analysis.prune_ratio" "ratio"
    (ratio
       (sumi (fun st -> st.n_pruned_lb))
       (sumi (fun st -> st.n_bound_calls)));
  M.layer r "analysis.lv_delta_ratio" "ratio"
    (ratio
       (sumi (fun st -> st.n_lv_delta))
       (sumi (fun st -> st.n_bound_calls)));
  M.layer r "analysis.cut_reuse_ratio" "ratio"
    (ratio
       (sumi (fun st -> st.n_cut_reused))
       (sumi (fun st -> st.n_cut_reused + st.n_cut_recomputed)));
  M.layer r "sched.reschedule_s" "s" (meanf (fun st -> st.t_sched));
  M.layer r "sched.reschedules" "count" (meani (fun st -> st.n_sched));
  M.layer r "sched.replaced_frac" "ratio"
    (ratio
       (sumi (fun st -> st.n_resched_nodes))
       (sumi (fun st -> st.n_sched_nodes)));
  M.layer r "sched.fallbacks" "count" (meani (fun st -> st.n_sched_fallback));
  M.layer r "cost.simulate_s" "s" (meanf (fun st -> st.t_simul));
  M.layer r "cost.simulations" "count" (meani (fun st -> st.n_simul));
  M.layer r "opt.iterations" "count" (meani (fun st -> st.iterations));
  M.layer r "opt.other_s" "s"
    ((List.fold_left ( +. ) 0.0 walls -. sumf phase_sum) /. n)

(** Per search case: the median search wall time, then the total wall
    time against the phase split, summed over the case's searches. *)
let pp_accounting rows =
  Printf.printf "\n%-18s %9s | %9s %9s %9s %9s %9s %9s %9s %6s\n" "case"
    "median_s" "wall_s" "apply" "hash" "bound" "resched" "simulate" "other"
    "other%";
  List.iter
    (fun (name, walls, (stats : Search.stats list)) ->
      let wall = List.fold_left ( +. ) 0.0 walls in
      let sum f = List.fold_left (fun acc st -> acc +. f st) 0.0 stats in
      let other = wall -. sum phase_sum in
      Printf.printf
        "%-18s %9.4f | %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %5.1f%%\n" name
        (M.median walls) wall
        (sum (fun st -> st.t_transform))
        (sum (fun st -> st.t_hash))
        (sum (fun st -> st.t_bound))
        (sum (fun st -> st.t_sched))
        (sum (fun st -> st.t_simul))
        other (100.0 *. other /. wall))
    rows

(* ------------------------------------------------------------------ *)
(* Self time of traced spans                                            *)
(* ------------------------------------------------------------------ *)

type self_times = {
  self : (string, float ref) Hashtbl.t;  (** span name -> self seconds *)
  mutable chrome : string;  (** Chrome trace of the last capture *)
}

let self_times () = { self = Hashtbl.create 32; chrome = "" }

(* A span's self time is its duration minus what its direct children
   cover.  Spans nest per lane — a domain, or a client thread named in a
   span's ["thread"] argument (spans without one ran on the main
   thread) — so one stack per lane suffices. *)
let add_events t (events : Trace.event list) =
  let lane (e : Trace.event) =
    (e.tid, Option.value (List.assoc_opt "thread" e.args) ~default:"0")
  in
  let spans =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.kind with
        | Trace.Span d -> Some (lane e, e.ts, d, e.name)
        | Trace.Instant -> None)
      events
    |> List.sort (fun (l1, s1, d1, _) (l2, s2, d2, _) ->
           compare (l1, s1, -.d1) (l2, s2, -.d2))
  in
  let add name dt =
    match Hashtbl.find_opt t.self name with
    | Some cell -> cell := !cell +. dt
    | None -> Hashtbl.add t.self name (ref dt)
  in
  let stack = ref [] and current = ref None in
  List.iter
    (fun (lane, start, dur, name) ->
      if !current <> Some lane then begin
        current := Some lane;
        stack := []
      end;
      let rec pop = function
        | (_, stop) :: rest when stop <= start -> pop rest
        | s -> s
      in
      stack := pop !stack;
      (match !stack with
      | (parent, _) :: _ -> add parent (-.dur)
      | [] -> ());
      add name dur;
      stack := (name, start +. dur) :: !stack)
    spans

let pp_self_times t =
  let rows =
    Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) t.self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 rows in
  Printf.printf "\nper-layer self time (traced run)\n";
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-34s %12.6f s %6.1f%%\n" name s
        (if total > 0.0 then 100.0 *. s /. total else 0.0))
    rows

let start_trace () = Trace.enable ~capacity:(1 lsl 19) ()

(* Fold the tracer's buffer into [t], keeping its Chrome rendering. *)
let capture t =
  add_events t (Trace.events ());
  t.chrome <- Trace.to_chrome ()

(** Run [f] with tracing off, when it is on: the measured half of a
    traced run.  Tracing restarts with an empty buffer afterwards, so
    [t] keeps what was recorded before. *)
let untraced t f =
  if not (Trace.enabled ()) then f ()
  else begin
    capture t;
    Trace.disable ();
    Fun.protect ~finally:start_trace f
  end

(** End a traced run: fold the rest of the buffer into [t] and print the
    self-time table. *)
let stop_trace t =
  capture t;
  Trace.disable ();
  pp_self_times t
