(** Unit tests of the baseline plumbing: the bisection driver and the
    outcome type, against synthetic closed-form systems. *)

open Magis
open Helpers

(** A synthetic system: latency grows linearly as the budget shrinks below
    the natural peak; infeasible below a floor. *)
let synthetic ~natural ~floor ~slope budget : Outcome.t =
  if budget < floor then Outcome.infeasible "synthetic"
  else if budget >= natural then
    { system = "synthetic"; peak_mem = natural; latency = 1.0; feasible = true }
  else
    {
      system = "synthetic";
      peak_mem = budget;
      latency = 1.0 +. (slope *. float_of_int (natural - budget));
      feasible = true;
    }

let test_bisection_finds_limit () =
  let natural = 1_000_000 and floor = 100_000 in
  let slope = 1e-6 (* +100% at 0 bytes *) in
  let o =
    Outcome.min_memory_under_latency
      ~run:(synthetic ~natural ~floor ~slope)
      ~lo:floor ~hi:natural ~lat_limit:1.10
  in
  Alcotest.(check bool) "feasible" true o.feasible;
  (* +10% latency is reached at 100k below natural *)
  let expected = natural - 100_000 in
  Alcotest.(check bool)
    (Printf.sprintf "close to the analytic optimum (got %d, expected ~%d)"
       o.peak_mem expected)
    true
    (abs (o.peak_mem - expected) < natural / 16);
  Alcotest.(check bool) "respects the limit" true (o.latency <= 1.10 +. 1e-9)

let test_bisection_infeasible_top () =
  (* even the most relaxed budget violates the latency limit *)
  let run _ = { Outcome.system = "s"; peak_mem = 1; latency = 9.0; feasible = true } in
  let o =
    Outcome.min_memory_under_latency ~run ~lo:1 ~hi:100 ~lat_limit:1.0
  in
  Alcotest.(check bool) "reported infeasible" false o.feasible

let test_bisection_monotone_floor () =
  (* a hard floor: everything below fails outright *)
  let o =
    Outcome.min_memory_under_latency
      ~run:(synthetic ~natural:1000 ~floor:800 ~slope:0.0)
      ~lo:1 ~hi:1000 ~lat_limit:2.0
  in
  Alcotest.(check bool) "feasible" true o.feasible;
  Alcotest.(check bool) "stops at or above the floor" true (o.peak_mem >= 800)

let test_infeasible_constructor () =
  let o = Outcome.infeasible "x" in
  Alcotest.(check bool) "not feasible" false o.feasible;
  Alcotest.(check string) "pp says FAILURE" "x: FAILURE"
    (Fmt.str "%a" Outcome.pp o)

let test_nested_fission_accounting () =
  (* a parent region at n=2 with a child at n=2: the child's interior
     tensors shrink by 4x *)
  let c = cache () in
  let g = mlp_training ~batch:16 ~hidden:16 () in
  let s = Mstate.init ~sched_states:0 c g in
  let t = s.ftree in
  (* find a parent-child pair of candidates *)
  let pair = ref None in
  for i = 0 to Ftree.n_entries t - 1 do
    if (Ftree.entry t i).parent >= 0 && !pair = None then
      pair := Some (i, (Ftree.entry t i).parent)
  done;
  match !pair with
  | None -> () (* flat tree on this graph: nothing to check *)
  | Some (child, parent) ->
      let t = Ftree.set_n t child 2 in
      let t = Ftree.set_n t parent 2 in
      let acc = Ftree.accounting c (Graph_index.of_graph g) t in
      let child_members = Fission.members (Ftree.fission_at t child) in
      let parent_outs =
        Graph.outs_of g (Fission.members (Ftree.fission_at t parent))
      in
      let child_outs = Graph.outs_of g child_members in
      Util.Int_set.iter
        (fun v ->
          if
            (not (Util.Int_set.mem v child_outs))
            && not (Util.Int_set.mem v parent_outs)
          then
            Alcotest.(check int)
              (Printf.sprintf "node %d shrinks 4x" v)
              (Lifetime.default_size g v / 4)
              (acc.size_of v))
        child_members

let suite =
  [
    tc "bisection finds the analytic limit" test_bisection_finds_limit;
    tc "bisection reports infeasibility" test_bisection_infeasible_top;
    tc "bisection respects floors" test_bisection_monotone_floor;
    tc "infeasible constructor" test_infeasible_constructor;
    tc "nested fission accounting" test_nested_fission_accounting;
  ]
