(** Incremental search core: {!Incremental.reschedule} reports
    fallbacks without discarding the attempted window.  The simulation
    cache's round trip is tested in [test_par.ml]. *)

open Magis
open Helpers

(* ------------------------------------------------------------------ *)
(* Reschedule fallback reporting                                       *)
(* ------------------------------------------------------------------ *)

let test_fallback_reports_window () =
  let g, _, _, _, _ = chain3 () in
  let size_of = Lifetime.default_size g in
  (* no old schedule: the fallback must still report a usable window
     covering the whole new order, not a discarded interval *)
  let order, st =
    Incremental.reschedule ~max_states:20_000 ~parent:(Incremental.parent (Graph_index.of_graph g) []) ~new_index:(Graph_index.of_graph g)
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
  let base = Reorder.schedule ~max_states:20_000 ~size_of g in
  let order2, st2 =
    Incremental.reschedule ~max_states:20_000 ~parent:(Incremental.parent (Graph_index.of_graph g) base) ~new_index:(Graph_index.of_graph g)
      ~mutated_old:(int_set [ List.nth base 1 ]) ~size_of ()
  in
  Alcotest.(check bool) "no fallback on a clean splice" false
    st2.Incremental.fallback;
  schedule_clean ~what:"spliced schedule" g order2

let suite =
  [
    Alcotest.test_case "reschedule fallback reporting" `Quick
      test_fallback_reports_window;
  ]
