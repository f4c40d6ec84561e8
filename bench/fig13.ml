(** Figure 13: heuristic ablation on the BERT workload under the four
    constraints of §7.2.1/§7.2.2.  Settings: naïve-fission (random
    candidate selection instead of Algorithm 1), naïve-sch-rule (no
    hot-spot filtering for scheduling rules), and max-level L = 2 / 4 / 8.
    For each run we report the time point where the constraint was first
    met (the paper's ⋄), the best final value (the paper's □) and the
    search-progress curve. *)

open Magis

type setting = { label : string; ablation : Search.ablation }

let settings =
  [
    { label = "naive-fission";
      ablation = { Search.default_ablation with use_ftree_heuristic = false } };
    { label = "naive-sch-rule";
      ablation = { Search.default_ablation with restrict_sched_rules = false } };
    { label = "max-level=2";
      ablation = { Search.default_ablation with max_level = 2 } };
    { label = "max-level=4"; ablation = Search.default_ablation };
    { label = "max-level=8";
      ablation = { Search.default_ablation with max_level = 8 } };
  ]

let constraint_label : Search.relative -> string = function
  | Overhead o -> Printf.sprintf "latency overhead < %.0f%%" (100.0 *. o)
  | Mem_ratio r -> Printf.sprintf "memory ratio < %.0f%%" (100.0 *. r)

let run (env : Common.env) =
  let w = Zoo.find "BERT-base" in
  let g = Common.workload_graph env w in
  let base = Common.baseline env g in
  let constraints =
    Search.[ Overhead 0.10; Overhead 0.05; Mem_ratio 0.8; Mem_ratio 0.4 ]
  in
  List.iter
    (fun c ->
      Common.hr (Printf.sprintf "Figure 13: ablation on BERT, %s" (constraint_label c));
      List.iter
        (fun s ->
          let config =
            { (Common.search_config env) with ablation = s.ablation }
          in
          let result =
            match c with
            | Search.Overhead o ->
                Search.optimize_memory ~config env.cost ~overhead:o g
            | Mem_ratio r ->
                Search.optimize_latency ~config env.cost ~mem_ratio:r g
          in
          (* find when the constraint was first met (the run's own limit,
             and in memory mode a peak below the baseline's), and the
             best value *)
          let mem_limit, lat_limit = Search.limits result.mode in
          let meets peak lat =
            peak <= mem_limit && lat <= lat_limit
            && (match c with
               | Search.Overhead _ -> peak < base.Outcome.peak_mem
               | Mem_ratio _ -> true)
          in
          let first_met =
            List.find_opt (fun (_, p, l) -> meets p l) result.history
          in
          let objective peak lat =
            match c with
            | Search.Overhead _ -> float_of_int peak /. float_of_int base.peak_mem
            | Mem_ratio _ -> (lat -. base.latency) /. base.latency
          in
          (* running best objective over constraint-feasible states only *)
          let curve =
            List.rev
              (snd
                 (List.fold_left
                    (fun (best_so_far, acc) (t, p, l) ->
                      if meets p l then
                        let o = objective p l in
                        let b =
                          match best_so_far with
                          | Some b -> Float.min b o
                          | None -> o
                        in
                        (Some b, Printf.sprintf "(%.1fs, %.3f)" t b :: acc)
                      else (best_so_far, acc))
                    (None, []) result.history))
          in
          Printf.printf "%-16s best=%.3f  met@%s  curve: %s\n" s.label
            (objective result.best.peak_mem result.best.latency)
            (match first_met with
            | Some (t, _, _) -> Printf.sprintf "%.1fs" t
            | None -> "never")
            (String.concat " " curve))
        settings)
    constraints
