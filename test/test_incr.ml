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
  Alcotest.(check bool) "some entries stored in full" true (fulls > 0)

(** The prefix, suffix and middle length of [sched] against [parent], as
    the array codec that copied both lists found them. *)
let ref_window parent sched =
  let pa = Array.of_list parent and ca = Array.of_list sched in
  let np = Array.length pa and nc = Array.length ca in
  let n = min np nc in
  let i = ref 0 in
  while !i < n && pa.(!i) = ca.(!i) do incr i done;
  let j = ref 0 in
  while !j < n - !i && pa.(np - 1 - !j) = ca.(nc - 1 - !j) do incr j done;
  (!i, !j, nc - !i - !j)

(** Children of one parent over a three-value alphabet, where a shared
    value can extend either the prefix or the suffix: every entry is
    stored as a delta exactly when the array codec's window is smaller
    than the child, whether the parent comes back physically or as an
    equal copy, round-trips, and [clear] resets the counts. *)
let test_sim_cache_codec_window () =
  let rng = Random.State.make [| 7 |] in
  let draw n = List.init n (fun _ -> Random.State.int rng 3) in
  let parent = draw 60 in
  let cache = Sim_cache.create () in
  let value sched =
    { Sim_cache.schedule = sched; peak_mem = 0; latency = 0.0; hotspots = [] }
  in
  let expected = ref (0, 0) in
  for k = 0 to 199 do
    let lo = Random.State.int rng 60 in
    let hi = lo + Random.State.int rng (61 - lo) in
    let child = Util.take lo parent @ draw (Random.State.int rng 8) @ Util.drop hi parent in
    (* every other child passes an equal copy of the parent *)
    let parent = if k mod 2 = 0 then parent else List.map Fun.id parent in
    Sim_cache.add ~parent cache (Int64.of_int k) (value child);
    let _, _, middle = ref_window parent child in
    let fulls, deltas = !expected in
    expected :=
      if middle >= List.length child then (fulls + 1, deltas)
      else (fulls, deltas + 1);
    Alcotest.(check (pair int int))
      (Printf.sprintf "child %d stored as the array codec chose" k)
      !expected (Sim_cache.delta_stats cache);
    match Sim_cache.find cache (Int64.of_int k) with
    | Some v when v.schedule = child -> ()
    | _ -> Alcotest.failf "child %d does not round-trip" k
  done;
  Sim_cache.clear cache;
  Sim_cache.add ~parent cache 0L (value (List.tl parent));
  Alcotest.(check (pair int int)) "counts restart after clear" (0, 1)
    (Sim_cache.delta_stats cache)

(* ------------------------------------------------------------------ *)
(* Reschedule fallback reporting                                       *)
(* ------------------------------------------------------------------ *)

let test_fallback_reports_window () =
  let g, _, _, _, _ = chain3 () in
  let size_of = Lifetime.default_size g in
  (* no old schedule: the fallback must still report a usable window
     covering the whole new order, not a discarded interval *)
  let order, st =
    Incremental.reschedule ~parent:(Incremental.parent (Graph_index.of_graph g) []) ~new_index:(Graph_index.of_graph g)
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
    Incremental.reschedule ~parent:(Incremental.parent (Graph_index.of_graph g) base) ~new_index:(Graph_index.of_graph g)
      ~mutated_old:(int_set [ List.nth base 1 ]) ~size_of ()
  in
  Alcotest.(check bool) "no fallback on a clean splice" false
    st2.Incremental.fallback;
  schedule_clean ~what:"spliced schedule" g order2

let suite =
  [
    Alcotest.test_case "sim-cache delta round-trip" `Quick
      test_sim_cache_roundtrip;
    Alcotest.test_case "sim-cache codec stores the array codec's window" `Quick
      test_sim_cache_codec_window;
    Alcotest.test_case "reschedule fallback reporting" `Quick
      test_fallback_reports_window;
  ]
