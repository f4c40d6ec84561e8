(** Incremental search core: (1) the delta-encoded {!Sim_cache}
    round-trips schedules bit-identically; (2) {!Incremental.reschedule}
    reports fallbacks without discarding the attempted window. *)

open Magis
open Helpers

(* ------------------------------------------------------------------ *)
(* Sim_cache delta round-trip                                          *)
(* ------------------------------------------------------------------ *)

(** Seeded schedule-like int lists sharing prefixes/suffixes with a
    parent, plus adversarial cases (empty, disjoint, identical). *)
let test_sim_cache_roundtrip () =
  let cache = Sim_cache.create () in
  let rng = Random.State.make [| 42 |] in
  let value sched =
    {
      Sim_cache.schedule = sched;
      peak_mem = List.fold_left ( + ) 0 sched;
      latency = float_of_int (List.length sched);
      hotspots = List.filter (fun v -> v mod 3 = 0) sched;
    }
  in
  let cases = ref [] in
  let add_case ?parent key sched =
    Sim_cache.add ?parent cache key (value sched);
    cases := (key, sched) :: !cases
  in
  let parent = List.init 40 (fun i -> i) in
  add_case 1L parent;
  (* middle rewritten, ends shared *)
  add_case ~parent 2L (List.init 40 (fun i -> if i >= 10 && i < 14 then 100 + i else i));
  (* insertion (longer than parent) and deletion (shorter) *)
  add_case ~parent 3L (List.init 43 (fun i -> if i >= 20 && i < 23 then 200 + i else if i >= 23 then i - 3 else i));
  add_case ~parent 4L (List.init 37 (fun i -> if i < 18 then i else i + 3));
  (* disjoint, identical, empty, singleton *)
  add_case ~parent 5L (List.init 40 (fun i -> 1000 + i));
  add_case ~parent 6L parent;
  add_case ~parent 7L [];
  add_case ~parent 8L [ 7 ];
  (* random windows against random parents *)
  for k = 0 to 19 do
    let n = 10 + Random.State.int rng 50 in
    let p = List.init n (fun _ -> Random.State.int rng 500) in
    let lo = Random.State.int rng n in
    let hi = lo + Random.State.int rng (n - lo) in
    let child =
      List.mapi (fun i v -> if i >= lo && i < hi then v + 1000 else v) p
    in
    add_case ~parent:p (Int64.of_int (100 + (2 * k))) p;
    add_case ~parent:p (Int64.of_int (101 + (2 * k))) child
  done;
  List.iter
    (fun (key, sched) ->
      match Sim_cache.find cache key with
      | None -> Alcotest.failf "entry %Ld lost" key
      | Some v ->
          Alcotest.(check (list int))
            (Printf.sprintf "entry %Ld round-trips bit-identically" key)
            sched v.Sim_cache.schedule;
          Alcotest.(check int) "peak survives" (List.fold_left ( + ) 0 sched)
            v.Sim_cache.peak_mem)
    !cases;
  let fulls, deltas = Sim_cache.delta_stats cache in
  Alcotest.(check bool) "some entries stored as deltas" true (deltas > 0);
  Alcotest.(check bool) "some entries stored in full" true (fulls > 0);
  Alcotest.(check bool) "resident footprint accounted" true
    (Sim_cache.resident_ints cache > 0)

(* ------------------------------------------------------------------ *)
(* Reschedule fallback reporting                                       *)
(* ------------------------------------------------------------------ *)

let test_fallback_reports_window () =
  let g, _, _, _, _ = chain3 () in
  let size_of = Lifetime.default_size g in
  (* no old schedule: the fallback must still report a usable window
     covering the whole new order, not a discarded interval *)
  let order, st =
    Incremental.reschedule ~old_graph:g ~new_graph:g ~old_schedule:[]
      ~mutated_old:(int_set [ 0 ]) ~size_of ()
  in
  Alcotest.(check bool) "fallback flagged" true st.Incremental.fallback;
  Alcotest.(check (pair int int)) "window spans the full schedule"
    (0, List.length order)
    st.Incremental.interval;
  Alcotest.(check int) "everything rescheduled" (List.length order)
    st.Incremental.rescheduled;
  schedule_clean ~what:"fallback schedule" g order;
  (* a clean splice reports a proper sub-window and no fallback *)
  let base = Reorder.schedule ~size_of g in
  let order2, st2 =
    Incremental.reschedule ~old_graph:g ~new_graph:g ~old_schedule:base
      ~mutated_old:(int_set [ List.nth base 1 ]) ~size_of ()
  in
  Alcotest.(check bool) "no fallback on a clean splice" false
    st2.Incremental.fallback;
  schedule_clean ~what:"spliced schedule" g order2

let suite =
  [
    Alcotest.test_case "sim-cache delta round-trip" `Quick
      test_sim_cache_roundtrip;
    Alcotest.test_case "reschedule fallback reporting" `Quick
      test_fallback_reports_window;
  ]
