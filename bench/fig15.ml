(** Figure 15: optimization-time breakdown of a 1-minute ViT optimization:
    seconds per search stage (the paper's transformation, scheduling,
    simulation and hash-test phases are the generate, reschedule,
    simulate and hash stages), the time no stage accounts for, and
    every counter — the duplicate graphs filtered by the hash test
    among them — and the number of operator-cost queries (the
    [op_cost.queries] metric, recorded for the search whether or not
    [--metrics] is given). *)

open Magis

let run (env : Common.env) =
  let w = Zoo.find "ViT-base" in
  let g = Common.workload_graph env w in
  Common.hr
    (Printf.sprintf
       "Figure 15: optimization time breakdown, ViT (batch %d), %.0fs budget"
       w.batch env.budget);
  let config = Common.search_config env in
  let queries = Metrics.counter "op_cost.queries" in
  let metrics = Metrics.enabled () in
  Metrics.set_enabled true;
  let q0 = Metrics.counter_value queries in
  let r =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled metrics)
      (fun () -> Search.optimize_latency ~config env.cost ~mem_ratio:0.6 g)
  in
  (* the stage table, counters, cache and rescheduling lines all come from
     the shared stat renderer (also used by [magis_cli optimize]) *)
  Format.printf "%a%!" Search.pp_stats r.stats;
  Printf.printf "Best peak %.1f MB, best latency %.2f ms\n"
    (float_of_int r.best.peak_mem /. 1e6)
    (r.best.latency *. 1e3);
  Printf.printf "Operator cost queries: %d\n"
    (Metrics.counter_value queries - q0)
