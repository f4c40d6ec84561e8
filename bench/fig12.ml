(** Figure 12: MAGIS vs POFO with micro-batching pre-processing on ViT —
    the whole graph is split along the batch dimension with factors
    32/16/8 before POFO runs (latency multiplied by the factor).  Shows
    that graph transformation helps POFO under tight budgets but MAGIS's
    coordinated search still wins. *)

open Magis

let run (env : Common.env) =
  let w = Zoo.find "ViT-base" in
  let g = Common.workload_graph env w in
  let base = Common.baseline env g in
  Common.hr
    (Printf.sprintf "Figure 12: MAGIS vs POFO + micro-batching, %s (batch=%d)"
       w.name w.batch);
  let build batch =
    match env.scale with
    | Zoo.Full ->
        Transformer.build_vit ~image:224 ~patch:16
          (Transformer.vit_base ~batch ())
    | Zoo.Quick ->
        Transformer.build_vit ~image:128 ~patch:16
          (Transformer.vit_base ~batch ~image:128 ~patch:16 ~layers:2 ())
  in
  let ratios = [ 0.8; 0.6; 0.5; 0.4; 0.3; 0.2 ] in
  let budget_of r = fst (Common.limits base (Search.Mem_ratio r)) in
  let print_series name points =
    Printf.printf "%-16s" name;
    List.iter (fun (m, l) -> Printf.printf " (%.2f, %+.2f)" m l) points;
    print_newline ()
  in
  (* MAGIS *)
  print_series "MAGIS"
    (List.filter_map
       (fun r ->
         let o = Common.magis_latency env g ~mem_ratio:r in
         if o.Outcome.feasible then
           Some (Common.ratio_of o ~base, Common.overhead_of o ~base)
         else None)
       ratios);
  (* plain POFO *)
  print_series "POFO"
    (List.filter_map
       (fun r ->
         let o = Pofo.run env.cost g ~budget:(budget_of r) in
         if o.Outcome.feasible then
           Some (Common.ratio_of o ~base, Common.overhead_of o ~base)
         else None)
       ratios);
  (* POFO over micro-batched graphs *)
  List.iter
    (fun factor ->
      print_series
        (Printf.sprintf "POFO(factor=%d)" factor)
        (List.filter_map
           (fun r ->
             let o =
               Microbatch.run env.cost ~build ~batch:w.batch ~factor
                 ~budget:(budget_of r)
             in
             if o.Outcome.feasible then
               Some (Common.ratio_of o ~base, Common.overhead_of o ~base)
             else None)
           ratios))
    [ 32; 16; 8 ]
