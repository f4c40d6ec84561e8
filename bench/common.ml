(** Shared plumbing for the benchmark harness: environment (scale, search
    budget), per-system runners and table formatting. *)

open Magis

type env = {
  cache : Op_cost.t;
  sim_cache : Sim_cache.t;
      (** shared across every search of a bench run, so ablation and
          budget sweeps replay previously simulated states for free *)
  scale : Zoo.scale;
  budget : float;  (** seconds of search per MAGIS optimization *)
  jobs : int;  (** worker domains per search (1 = serial) *)
  iters : int;  (** iteration cap per search (CI smoke uses a tight one) *)
  stats_json : string option;
      (** write each experiment's deterministic counters here as a flat
          JSON object — the artifact the CI perf-smoke job diffs
          against [bench/baselines/] with [scripts/compare_bench.sh] *)
}

let make_env ?(jobs = 1) ?(iters = max_int) ?stats_json ~full ~budget () =
  {
    cache = Op_cost.create Hardware.default;
    sim_cache = Sim_cache.create ();
    scale = (if full then Zoo.Full else Zoo.Quick);
    budget;
    jobs;
    iters;
    stats_json;
  }

(** Write an experiment's counters as a one-object JSON file when the
    run asked for one ([--stats-json]).  Keys are emitted in the order
    given; values are limited to scalars so the file diffs cleanly.
    Timing-derived fields must be named [t_*], [wall*] or [speedup*] —
    {!scripts/compare_bench.sh} skips those; every other field is gated
    exactly against the checked-in baseline. *)
let write_stats_json env (fields : (string * Json.t) list) =
  match env.stats_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Json.to_string (Json.Obj fields)));
      Printf.printf "[stats written to %s]\n%!" path

let search_config env =
  { Search.default_config with
    time_budget = env.budget;
    max_iterations = env.iters;
    jobs = env.jobs;
    sim_cache = Some env.sim_cache }

(** Unoptimized PyTorch reference for a workload. *)
let baseline env g = Naive.run env.cache g

let ratio_of o ~(base : Outcome.t) =
  float_of_int o.Outcome.peak_mem /. float_of_int base.peak_mem

let overhead_of o ~(base : Outcome.t) =
  (o.Outcome.latency -. base.latency) /. base.latency

(* ------------------------------------------------------------------ *)
(* System runners                                                      *)
(* ------------------------------------------------------------------ *)

(** MAGIS, memory-constrained-latency mode (Fig. 9): minimize memory with
    at most [overhead] extra latency. *)
let magis_memory env g ~overhead : Outcome.t =
  let r = Search.optimize_memory ~config:(search_config env) env.cache ~overhead g in
  let base = baseline env g in
  let feasible = r.best.latency <= base.latency *. (1.0 +. overhead) *. 1.0001 in
  {
    Outcome.system = "MAGIS";
    peak_mem = r.best.peak_mem;
    latency = r.best.latency;
    feasible;
  }

(** MAGIS, latency-under-memory mode (Fig. 10): minimize latency with peak
    memory at most [mem_ratio] of the unoptimized baseline. *)
let magis_latency env g ~mem_ratio : Outcome.t =
  let r = Search.optimize_latency ~config:(search_config env) env.cache ~mem_ratio g in
  let base = baseline env g in
  let limit = int_of_float (float_of_int base.peak_mem *. mem_ratio) in
  {
    Outcome.system = "MAGIS";
    peak_mem = r.best.peak_mem;
    latency = r.best.latency;
    feasible = r.best.peak_mem <= limit;
  }

(** All systems under a latency-overhead constraint; returns outcomes in a
    fixed order: MAGIS, POFO, DTR, XLA, TVM, TI. *)
let systems_memory env g ~overhead : Outcome.t list =
  let base = baseline env g in
  let lat_limit = base.latency *. (1.0 +. overhead) in
  [
    magis_memory env g ~overhead;
    Pofo.min_memory env.cache g ~lat_limit;
    Dtr.min_memory env.cache g ~lat_limit;
    Xla.min_memory env.cache g ~lat_limit;
    (let o = Fusion_compiler.run Fusion_compiler.Tvm env.cache g in
     { o with feasible = o.latency <= lat_limit });
    (let o = Fusion_compiler.run Fusion_compiler.Torch_inductor env.cache g in
     { o with feasible = o.latency <= lat_limit });
  ]

(** All systems under a peak-memory constraint. *)
let systems_latency env g ~mem_ratio : Outcome.t list =
  let base = baseline env g in
  let budget = int_of_float (float_of_int base.peak_mem *. mem_ratio) in
  [
    magis_latency env g ~mem_ratio;
    Pofo.run env.cache g ~budget;
    Dtr.run env.cache g ~budget;
    Xla.run env.cache g ~budget;
    Fusion_compiler.constrained Fusion_compiler.Tvm env.cache g ~mem_limit:budget;
    Fusion_compiler.constrained Fusion_compiler.Torch_inductor env.cache g
      ~mem_limit:budget;
  ]

(* ------------------------------------------------------------------ *)
(* Formatting                                                          *)
(* ------------------------------------------------------------------ *)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let cell_ratio o ~base =
  if o.Outcome.feasible then Printf.sprintf "%5.2f" (ratio_of o ~base)
  else " OOM "

let cell_overhead o ~base =
  if o.Outcome.feasible then Printf.sprintf "%+6.1f%%" (100.0 *. overhead_of o ~base)
  else "FAILURE"

let print_matrix ~row_names ~col_names cells =
  Printf.printf "%-18s" "";
  List.iter (fun c -> Printf.printf "%14s" c) col_names;
  print_newline ();
  List.iteri
    (fun i name ->
      Printf.printf "%-18s" name;
      List.iter (fun c -> Printf.printf "%14s" c) (List.nth cells i);
      print_newline ())
    row_names

let workload_graph env (w : Zoo.workload) = w.build env.scale

(** The smallest Table-2 workload at the current scale, by operator
    count — the subject of the CI bench-smoke job and the parallel
    speedup experiment. *)
let smallest_workload env =
  List.map (fun (w : Zoo.workload) -> (w, workload_graph env w)) Zoo.all
  |> List.sort (fun ((wa : Zoo.workload), a) ((wb : Zoo.workload), b) ->
         compare (Graph.n_nodes a, wa.name) (Graph.n_nodes b, wb.name))
  |> List.hd

(** Workloads used by the headline experiments; the very large LMs are
    optionally excluded when iterating quickly. *)
let bench_workloads ?(names = []) () =
  match names with
  | [] -> Zoo.all
  | _ -> List.map Zoo.find names
