(** Common result type for the baseline memory optimizers. *)

open Magis_ir
open Magis_cost

type t = {
  system : string;
  peak_mem : int;  (** device bytes at the memory peak *)
  latency : float;  (** seconds per training iteration *)
  feasible : bool;  (** whether the requested constraint was met *)
}

let infeasible system = { system; peak_mem = max_int; latency = infinity; feasible = false }

let pp ppf t =
  if t.feasible then
    Fmt.pf ppf "%s: peak=%.1fMB lat=%.2fms" t.system
      (float_of_int t.peak_mem /. 1e6)
      (t.latency *. 1e3)
  else Fmt.pf ppf "%s: FAILURE" t.system

(** Binary-search the smallest memory budget whose outcome keeps latency
    within [lat_limit]; used to run budget-driven baselines under the
    paper's latency-constrained experiments (Fig. 9). *)
let min_memory_under_latency ~(run : int -> t) ~(lo : int) ~(hi : int)
    ~(lat_limit : float) : t =
  let rec bisect lo hi best iters =
    if iters = 0 || hi - lo <= max 1 (hi / 64) then best
    else
      let mid = (lo + hi) / 2 in
      let o = run mid in
      if o.feasible && o.latency <= lat_limit then
        bisect lo mid o (iters - 1)
      else bisect mid hi best (iters - 1)
  in
  let top = run hi in
  if not (top.feasible && top.latency <= lat_limit) then
    { top with feasible = false }
  else bisect lo hi top 12

let min_memory (cost : Op_cost.t) (g : Graph.t) ~(lat_limit : float)
    (run : budget:int -> t) : t =
  let base = Simulator.baseline cost (Graph_index.of_graph g) in
  min_memory_under_latency
    ~run:(fun budget -> run ~budget)
    ~lo:(Graph.weight_bytes g) ~hi:base.peak_mem ~lat_limit
