(** Schedule-independent liveness and peak-memory bounds: envelope
    queries, admissibility of the lower bound against sampled random
    legal schedules and the zoo baselines, and the bound ordering
    invariants. *)

open Magis
open Helpers

(* ------------------------------------------------------------------ *)
(* Liveness envelopes                                                  *)
(* ------------------------------------------------------------------ *)

let test_chain_envelopes () =
  let g, x, r1, r2, r3 = chain3 () in
  let lv = Liveness.compute g in
  Alcotest.(check int) "chain length" 4 (Liveness.length lv);
  (* a chain is rigid: every node's earliest = latest *)
  List.iter
    (fun v -> Alcotest.(check int) "no mobility" 0 (Liveness.mobility lv v))
    [ x; r1; r2; r3 ];
  Alcotest.(check (pair int int)) "x alive until its consumer" (0, 1)
    (Liveness.envelope lv x);
  (* r3 is a graph output: pinned to the end *)
  Alcotest.(check bool) "sink pinned" true (Liveness.pinned lv r3);
  Alcotest.(check (pair int int)) "sink envelope" (3, 3)
    (Liveness.envelope lv r3);
  Alcotest.(check bool) "ordering constraint" true
    (Liveness.must_precede lv x r3);
  Alcotest.(check bool) "no reverse constraint" false
    (Liveness.must_precede lv r3 x)

let test_diamond_envelopes () =
  let g, x, l, r, j = diamond () in
  let lv = Liveness.compute g in
  (* each branch can run second or third; the join is always last *)
  List.iter
    (fun v -> Alcotest.(check int) "branch mobility" 1 (Liveness.mobility lv v))
    [ l; r ];
  Alcotest.(check int) "join earliest" 3 (fst (Liveness.envelope lv j));
  Alcotest.(check bool) "branches unordered" false
    (Liveness.must_precede lv l r || Liveness.must_precede lv r l);
  ignore x

(* ------------------------------------------------------------------ *)
(* Admissibility                                                       *)
(* ------------------------------------------------------------------ *)

(** [k] random legal schedules of [g] (Kahn's algorithm with a seeded
    random ready-pick). *)
let random_orders ?(k = 6) ~seed g =
  let rng = Random.State.make [| seed |] in
  List.init k (fun _ ->
      let indeg = Hashtbl.create 64 in
      List.iter
        (fun v -> Hashtbl.replace indeg v (List.length (Graph.pre g v)))
        (Graph.node_ids g);
      let ready =
        ref (List.filter (fun v -> Hashtbl.find indeg v = 0) (Graph.node_ids g))
      in
      let out = ref [] in
      while !ready <> [] do
        let i = Random.State.int rng (List.length !ready) in
        let v = List.nth !ready i in
        ready := List.filteri (fun j _ -> j <> i) !ready;
        out := v :: !out;
        List.iter
          (fun s ->
            let d = Hashtbl.find indeg s - 1 in
            Hashtbl.replace indeg s d;
            if d = 0 then ready := s :: !ready)
          (Graph.suc g v)
      done;
      List.rev !out)

let peak_of g order = Lifetime.peak_memory (Lifetime.analyze g order)

let test_lower_bound_admissible_random_orders () =
  List.iter
    (fun (what, g) ->
      let b = Membound.compute g in
      List.iteri
        (fun i order ->
          schedule_clean ~what g order;
          let peak = peak_of g order in
          if b.lower > peak then
            Alcotest.failf "%s order %d: lower %d > peak %d" what i b.lower
              peak;
          if peak > b.ub_total then
            Alcotest.failf "%s order %d: peak %d > ub_total %d" what i peak
              b.ub_total)
        (random_orders ~seed:42 g))
    [
      ("diamond", (fun (g, _, _, _, _) -> g) (diamond ()));
      ("mlp", mlp_training ());
      ("attention", (fun (g, _, _) -> g) (attention ()));
    ]

let test_bounds_hold_on_zoo () =
  let cache = cache () in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let b = Membound.compute g in
      let base = Simulator.run cache g (Graph.program_order g) in
      (match Diagnostic.errors (Membound.check b ~peak:base.peak_mem) with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s: %s" w.name (Diagnostic.report_to_string errs));
      (* the DP scheduler must respect the same envelope *)
      let dp = Reorder.schedule ~max_states:64 g in
      let peak = peak_of g dp in
      if b.lower > peak then
        Alcotest.failf "%s: lower %d > DP peak %d" w.name b.lower peak)
    Zoo.all

let test_bound_ordering_invariants () =
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let b = Membound.compute g in
      Alcotest.(check bool) (w.name ^ ": dom <= cut") true
        (b.lb_dom <= b.lb_cut);
      Alcotest.(check bool) (w.name ^ ": lower <= greedy ub") true
        (b.lower <= b.ub_greedy);
      Alcotest.(check bool) (w.name ^ ": greedy ub <= total ub") true
        (b.ub_greedy <= b.ub_total);
      Alcotest.(check bool) (w.name ^ ": weights pinned") true
        (b.lower >= Graph.weight_bytes g);
      (* the sampled probe never exceeds the full record's bound *)
      List.iter
        (fun sample ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: probe(%d) admissible" w.name sample)
            true
            (Membound.lower_bound ~sample g <= b.lower))
        [ 1; 4; 32 ])
    Zoo.all

let test_latency_lower_bound () =
  let c = cache () in
  let g = mlp_training () in
  let acc = Ftree.accounting c g Ftree.empty in
  let lb = Membound.latency_lower_bound ~cost_of:acc.cost_of g in
  Alcotest.(check bool) "positive" true (lb > 0.0);
  List.iter
    (fun order ->
      let res = Simulator.run c g order in
      Alcotest.(check bool) "latency floor holds" true (res.latency >= lb))
    (random_orders ~k:4 ~seed:7 g)

let test_empty_and_single () =
  Alcotest.(check int) "empty graph lower" 0
    (Membound.lower_bound Graph.empty);
  let b = Builder.create () in
  let x = Builder.input b [ 16 ] ~dtype:Shape.F32 in
  let g = Builder.finish b in
  let bounds = Membound.compute g in
  (* a lone placeholder: its output is the whole footprint *)
  Alcotest.(check int) "single node lower" (Graph.size_bytes g x) bounds.lower;
  Alcotest.(check int) "single node total" (Graph.size_bytes g x)
    bounds.ub_total

let suite =
  [
    tc "chain envelopes" test_chain_envelopes;
    tc "diamond envelopes" test_diamond_envelopes;
    tc "lower bound admissible on random orders"
      test_lower_bound_admissible_random_orders;
    tc "bounds hold on the zoo" test_bounds_hold_on_zoo;
    tc "bound ordering invariants" test_bound_ordering_invariants;
    tc "latency lower bound" test_latency_lower_bound;
    tc "empty and single-node graphs" test_empty_and_single;
  ]
