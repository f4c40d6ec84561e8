(** Bound analysis experiment: admissibility gap of the
    schedule-independent peak-memory bounds over the Table 2 zoo, and
    the cost of the full bound record. *)

open Magis

let now () = Unix.gettimeofday ()

let bounds_table (env : Common.env) =
  Common.hr "Bounds: admissible lower bound vs simulated peak (Table 2 zoo)";
  Printf.printf "%-12s %9s %9s %9s %9s %6s %8s\n" "Workload" "LB" "Peak"
    "Greedy" "Total" "Gap" "full ms";
  List.iter
    (fun (w : Zoo.workload) ->
      let g = Common.workload_graph env w in
      let t0 = now () in
      let b = Membound.compute g in
      let t_full = (now () -. t0) *. 1e3 in
      let base = Simulator.baseline env.cost (Graph_index.of_graph g) in
      Printf.printf "%-12s %9.1f %9.1f %9.1f %9.1f %6.2f %8.2f\n" w.name
        (float_of_int b.lower /. 1e6)
        (float_of_int base.peak_mem /. 1e6)
        (float_of_int b.ub_greedy /. 1e6)
        (float_of_int b.ub_total /. 1e6)
        (float_of_int base.peak_mem /. float_of_int (max 1 b.lower))
        t_full)
    Zoo.all

let run (env : Common.env) = bounds_table env
