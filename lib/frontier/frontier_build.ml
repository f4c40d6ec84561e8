(** Harvesting frontiers from searches and serving them from the cache
    (see the interface). *)

open Magis_cost
module Search = Magis_opt.Search
module Mstate = Magis_opt.Mstate

let sweep_mode = Search.Min_memory { lat_limit = infinity }

let harvest_into fr ~iteration (s : Mstate.t) =
  ignore
    (Frontier.insert fr ~peak:s.peak_mem ~latency:s.latency ~iteration
       s.schedule)

let key ?(config = Search.default_config) mode ~hw graph =
  Magis_ir.Util.hash_combine
    (Search.trajectory_fingerprint config mode
       ~hw:(Hardware.fingerprint hw)
       graph)
    (Int64.of_int config.Search.max_iterations)

let build ?(config = Search.default_config) cost mode graph =
  let fr = Frontier.create ~baseline:(Search.baseline cost graph) in
  let config = { config with Search.harvest = Some (harvest_into fr) } in
  let result = Search.run ~config cost mode graph in
  (* the starting state is never a candidate, so the hook never sees it;
     it is a point of the sweep all the same *)
  harvest_into fr ~iteration:0 result.Search.initial;
  (fr, result)

let cacheable (r : Search.result) =
  not
    (r.interrupted
    || List.exists (fun (_, step) -> step = "best-so-far") r.stats.degrade_steps)

let cached_or_build ?(config = Search.default_config) ~dir cost mode graph =
  let key = key ~config mode ~hw:cost.Op_cost.hw graph in
  match Frontier_cache.load ~dir ~key with
  | Some fr -> (fr, `Hit)
  | None ->
      let fr, result = build ~config cost mode graph in
      if cacheable result then Frontier_cache.save ~dir ~key fr;
      (fr, `Built result)

let budget_of_ratio fr ~ratio =
  int_of_float (float_of_int (fst (Frontier.baseline fr)) *. ratio)

let query_ratio fr ~ratio = Frontier.query fr ~budget:(budget_of_ratio fr ~ratio)
