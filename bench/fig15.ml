(** Figure 15: optimization-time breakdown of a 1-minute ViT optimization:
    seconds per search stage (the paper's transformation, scheduling,
    simulation and hash-test phases are the generate, reschedule,
    simulate and hash stages), the time no stage accounts for, and
    every counter — the duplicate graphs filtered by the hash test
    among them. *)

open Magis

let run (env : Common.env) =
  let w = Zoo.find "ViT-base" in
  let g = Common.workload_graph env w in
  Common.hr
    (Printf.sprintf
       "Figure 15: optimization time breakdown, ViT (batch %d), %.0fs budget"
       w.batch env.budget);
  let config = Common.search_config env in
  let r = Search.optimize_latency ~config env.cache ~mem_ratio:0.6 g in
  (* the stage table, counters, cache and worker lines all come from
     the shared stat renderer (also used by [magis_cli optimize]) *)
  Format.printf "%a%!" Search.pp_stats r.stats;
  Printf.printf "Best peak %.1f MB, best latency %.2f ms\n"
    (float_of_int r.best.peak_mem /. 1e6)
    (r.best.latency *. 1e3);
  let hits, misses = Op_cost.stats env.cache in
  Printf.printf "Operator cost cache: %d hits, %d misses\n" hits misses
