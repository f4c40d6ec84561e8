(** Direct probes of the primitives the search phases spend their time
    in, timed with Bechamel (the repository's micro-benchmark timer) on
    each model's initial and best graph of a memory-mode search. *)

module M = Measure
open Magis
open Bechamel
open Toolkit

let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.02) ~kde:None ()

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

(* OLS estimate of one call, in microseconds. *)
let us name f =
  let test = Test.make ~name (Staged.stage f) in
  Trace.with_span ~cat:"bench" ("probe " ^ name) @@ fun () ->
  let results =
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyzed = Analyze.all ols Instance.monotonic_clock results in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some [ t ] -> t /. 1e3 | _ -> acc)
    analyzed nan

let probes_of_graph cache (g : Graph.t) (order : int list) =
  let size_of v = Lifetime.default_size g v in
  let members = Util.Int_set.of_list (Graph.node_ids g) in
  let hotspots = Lifetime.hotspots (Lifetime.analyze g order) in
  [
    ("ir.wl_hash_us", us "wl_hash" (fun () -> Wl_hash.hash g));
    ("cost.simulate_us", us "simulate" (fun () -> Simulator.run cache g order));
    ("analysis.lower_bound_us",
      us "lower_bound" (fun () -> Membound.lower_bound g));
    ("analysis.liveness_us", us "liveness" (fun () -> Liveness.compute g));
    ("ftree.construct_us", us "ftree" (fun () -> Ftree.construct g ~hotspots));
    ("sched.greedy_us",
      us "greedy" (fun () -> Reorder.greedy_schedule ~size_of g members));
  ]

(** Geometric mean of each probe over the initial and best graphs of
    [results], plus the schedule codec on best-vs-initial schedules. *)
let run r (results : Search.result list) =
  let cache = Op_cost.create Hardware.default in
  let per_graph =
    List.concat_map
      (fun (res : Search.result) ->
        [ probes_of_graph cache res.initial.graph res.initial.schedule;
          probes_of_graph cache res.best.graph res.best.schedule ])
      results
  in
  List.iter
    (fun (name, _) ->
      M.layer r name "us" (M.geomean (List.map (List.assoc name) per_graph)))
    (List.hd per_graph);
  M.layer r "cost.codec_us" "us"
    (M.geomean
       (List.map
          (fun (res : Search.result) ->
            let parent = res.initial.schedule in
            us "codec" (fun () ->
                Sim_cache.Codec.decode
                  (Sim_cache.Codec.encode ~parent res.best.schedule)))
          results))

(** Budget queries on each frontier, at a few ratios. *)
let frontier_query r frontiers =
  M.layer r "frontier.query_us" "us"
    (M.geomean
       (List.concat_map
          (fun fr ->
            List.map
              (fun ratio ->
                us "frontier query" (fun () ->
                    Frontier_build.query_ratio fr ~ratio))
              [ 0.4; 0.7; 1.0 ])
          frontiers))
