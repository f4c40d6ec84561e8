(** Design-choice ablations beyond the paper's Fig. 13 — the engineering
    decisions DESIGN.md calls out:

    - diversified popping (every 4th pop from a random queue bucket) vs
      pure greedy best-first;
    - the compound sweep rules vs only the paper's four single-step
      scheduling rules;
    - greedy-only candidate scheduling vs a DP budget per evaluation;
    - the memory-planner strategies (best-fit vs first-fit vs bump) on
      the optimized schedules. *)

open Magis

type variant = { label : string; config : Search.config }

let variants base =
  [
    { label = "default"; config = base };
    { label = "no-diversify"; config = { base with diversify_pops = false } };
    { label = "no-sweep-rules"; config = { base with use_sweep_rules = false } };
    { label = "dp-eval(600)"; config = { base with sched_states = 600 } };
  ]

let run (env : Common.env) =
  Common.hr "Design ablation: search variants (memory @ <10% overhead)";
  let workloads = Zoo.ablation_trio in
  List.iter
    (fun wname ->
      let w = Zoo.find wname in
      let g = Common.workload_graph env w in
      let base = Common.baseline env g in
      Printf.printf "%s:\n" w.name;
      List.iter
        (fun v ->
          let r =
            Search.optimize_memory ~config:v.config env.cost ~overhead:0.10 g
          in
          Printf.printf "  %-16s ratio %.2f  lat %+5.1f%%  iters %d\n%!"
            v.label
            (Common.ratio_of
               { Outcome.system = ""; peak_mem = r.best.peak_mem;
                 latency = r.best.latency; feasible = true }
               ~base)
            (100.0 *. Common.overhead_of
               { Outcome.system = ""; peak_mem = r.best.peak_mem;
                 latency = r.best.latency; feasible = true }
               ~base)
            r.stats.iterations)
        (variants (Common.search_config env)))
    workloads;
  Common.hr "Design ablation: memory-planner strategies";
  List.iter
    (fun wname ->
      let w = Zoo.find wname in
      let g = Common.workload_graph env w in
      let order = Graph.topo_order g in
      let report strategy label =
        let p = Allocator.plan_schedule ~strategy g order in
        Printf.printf "  %-10s arena %8.1f MB (%.2fx of live peak)\n" label
          (float_of_int p.arena_size /. 1e6)
          (Allocator.fragmentation p)
      in
      Printf.printf "%s:\n" w.name;
      report Allocator.Best_fit "best-fit";
      report Allocator.First_fit "first-fit";
      report Allocator.Bump "bump")
    workloads
