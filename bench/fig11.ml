(** Figure 11: latency/memory trade-off (Pareto) curves for ResNet-50,
    BERT-base, UNet and GPT-Neo.  Each series is a list of (memory ratio,
    latency overhead) points; MAGIS should trace the lowest curve. *)

open Magis

let ratios = [ 1.0; 0.8; 0.6; 0.5; 0.4; 0.3; 0.2 ]

let series_of_budget_runner ~name ~base run =
  let points =
    List.filter_map
      (fun r ->
        let budget, _ = Common.limits base (Search.Mem_ratio r) in
        let o = run budget in
        if o.Outcome.feasible then
          Some (Common.ratio_of o ~base, Common.overhead_of o ~base)
        else None)
      ratios
  in
  (name, points)

let run (env : Common.env) =
  let workloads = Zoo.pareto_quad in
  List.iter
    (fun wname ->
      let w = Zoo.find wname in
      let g = Common.workload_graph env w in
      let base = Common.baseline env g in
      Common.hr
        (Printf.sprintf "Figure 11: latency & memory curve, %s (batch=%d)"
           w.name w.batch);
      let magis_series =
        ( "MAGIS",
          List.filter_map
            (fun r ->
              let o = Common.magis_latency env g ~mem_ratio:r in
              if o.Outcome.feasible then
                Some (Common.ratio_of o ~base, Common.overhead_of o ~base)
              else None)
            ratios )
      in
      let series =
        [
          magis_series;
          series_of_budget_runner ~name:"POFO" ~base (fun budget ->
              Pofo.run env.cost g ~budget);
          series_of_budget_runner ~name:"DTR" ~base (fun budget ->
              Dtr.run env.cost g ~budget);
          series_of_budget_runner ~name:"XLA" ~base (fun budget ->
              Xla.run env.cost g ~budget);
          ( "TVM",
            (let o = Fusion_compiler.run Fusion_compiler.Tvm env.cost g in
             [ (Common.ratio_of o ~base, Common.overhead_of o ~base) ]) );
          ( "TI",
            (let o =
               Fusion_compiler.run Fusion_compiler.Torch_inductor env.cost g
             in
             [ (Common.ratio_of o ~base, Common.overhead_of o ~base) ]) );
        ]
      in
      List.iter
        (fun (name, points) ->
          Printf.printf "%-6s" name;
          List.iter
            (fun (m, l) -> Printf.printf " (%.2f, %+.2f)" m l)
            points;
          print_newline ())
        series)
    workloads
