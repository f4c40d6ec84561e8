(** Shared plumbing for the benchmark harness: environment (scale, search
    budget), per-system runners and table formatting. *)

open Magis

type env = {
  cost : Op_cost.t;
  sim_cache : Sim_cache.t;
      (** shared across every search of a bench run, so ablation and
          budget sweeps replay previously simulated states for free *)
  scale : Zoo.scale;
  budget : float;  (** seconds of search per MAGIS optimization *)
  iters : int;  (** iteration cap per search (CI smoke uses a tight one) *)
  stats_json : string option;
      (** write the selected experiments' deterministic counters here
          as one flat JSON object — the artifact the CI perf-smoke job
          diffs against [bench/baselines/] with
          [scripts/compare_bench.sh] *)
  stats : (string * Json.t) list ref;
      (** the fields written so far, newest first *)
}

let make_env ?(iters = max_int) ?stats_json ~full ~budget () =
  {
    cost = Op_cost.create Hardware.default;
    sim_cache = Sim_cache.create ();
    scale = (if full then Zoo.Full else Zoo.Quick);
    budget;
    iters;
    stats_json;
    stats = ref [];
  }

(** Add an experiment's counters to the run's JSON object and rewrite
    the file, when the run asked for one ([--stats-json]): one object
    holds the keys of every experiment the run selected, in the order
    they were added, one per line; values are limited to scalars so the
    file diffs cleanly and a re-baseline's diff names each moved key.
    A key already in the object raises [Failure] rather than overwrite
    another experiment's value.  Timing-derived fields must be named
    [t_*], [wall*] or [speedup*] — {!scripts/compare_bench.sh} skips
    those; every other field is gated exactly against the checked-in
    baseline. *)
let write_stats_json env (fields : (string * Json.t) list) =
  match env.stats_json with
  | None -> ()
  | Some path ->
      List.iter
        (fun (k, v) ->
          if List.mem_assoc k !(env.stats) then
            Fmt.failwith "--stats-json %s: duplicate key %s" path k;
          env.stats := (k, v) :: !(env.stats))
        fields;
      let fields = List.rev !(env.stats) in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_char oc '{';
          List.iteri
            (fun i (k, v) ->
              Printf.fprintf oc "%s\n  %s: %s" (if i = 0 then "" else ",")
                (Json.to_string (Json.String k)) (Json.to_string v))
            fields;
          output_string oc "\n}\n")

(** Remove [path] and everything under it; a missing path is a no-op.
    Experiments that write under the temp directory call it when they
    are done there. *)
let rec remove_tree path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let search_config env =
  { Search.default_config with
    time_budget = env.budget;
    max_iterations = env.iters;
    sim_cache = Some env.sim_cache }

(** Unoptimized PyTorch reference for a workload. *)
let baseline env g = Naive.run env.cost g

(** The [(mem_limit, lat_limit)] a limit relative to [base] sets
    ({!Search.mode_of}, the rule MAGIS's own limit comes from). *)
let limits (base : Outcome.t) rel =
  Search.limits (Search.mode_of rel ~peak:base.peak_mem ~latency:base.latency)

let ratio_of o ~(base : Outcome.t) =
  float_of_int o.Outcome.peak_mem /. float_of_int base.peak_mem

let overhead_of o ~(base : Outcome.t) =
  (o.Outcome.latency -. base.latency) /. base.latency

(* ------------------------------------------------------------------ *)
(* System runners                                                      *)
(* ------------------------------------------------------------------ *)

(* A MAGIS row: the search's best, feasible when it met its limit. *)
let magis (r : Search.result) : Outcome.t =
  {
    Outcome.system = "MAGIS";
    peak_mem = r.best.peak_mem;
    latency = r.best.latency;
    feasible = Search.limit_met r;
  }

(** MAGIS, memory-constrained-latency mode (Fig. 9): minimize memory with
    at most [overhead] extra latency. *)
let magis_memory env g ~overhead =
  magis (Search.optimize_memory ~config:(search_config env) env.cost ~overhead g)

(** MAGIS, latency-under-memory mode (Fig. 10): minimize latency with peak
    memory at most [mem_ratio] of the unoptimized baseline. *)
let magis_latency env g ~mem_ratio =
  magis
    (Search.optimize_latency ~config:(search_config env) env.cost ~mem_ratio g)

(** All systems under a latency-overhead constraint; returns outcomes in a
    fixed order: MAGIS, POFO, DTR, XLA, TVM, TI. *)
let systems_memory env g ~overhead : Outcome.t list =
  let _, lat_limit = limits (baseline env g) (Search.Overhead overhead) in
  let fused kind =
    let o = Fusion_compiler.run kind env.cost g in
    { o with feasible = o.latency <= lat_limit }
  in
  [
    magis_memory env g ~overhead;
    Outcome.min_memory env.cost g ~lat_limit (Pofo.run env.cost g);
    Outcome.min_memory env.cost g ~lat_limit (Dtr.run env.cost g);
    Outcome.min_memory env.cost g ~lat_limit (Xla.run env.cost g);
    fused Fusion_compiler.Tvm;
    fused Fusion_compiler.Torch_inductor;
  ]

(** All systems under a peak-memory constraint. *)
let systems_latency env g ~mem_ratio : Outcome.t list =
  let budget, _ = limits (baseline env g) (Search.Mem_ratio mem_ratio) in
  [
    magis_latency env g ~mem_ratio;
    Pofo.run env.cost g ~budget;
    Dtr.run env.cost g ~budget;
    Xla.run env.cost g ~budget;
    Fusion_compiler.constrained Fusion_compiler.Tvm env.cost g ~mem_limit:budget;
    Fusion_compiler.constrained Fusion_compiler.Torch_inductor env.cost g
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
    count — the subject of the [resilience] experiment and the first
    case of the [zoo] experiment. *)
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
