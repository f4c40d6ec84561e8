(** MAGIS: memory optimization for DNN computation graphs via coordinated
    graph transformation and scheduling (Chen et al., ASPLOS 2024).

    This module is the public facade; the sub-libraries remain directly
    usable.  A typical session:

    {[
      let cost = Magis.Op_cost.create Magis.Hardware.default in
      let graph = Magis.Zoo.(find "UNet").build Magis.Zoo.Quick in
      let result = Magis.Search.optimize_memory cost ~overhead:0.10 graph in
      Fmt.pr "%a@." Magis.Mstate.pp result.best
    ]} *)

(* IR substrate *)
module Shape = Magis_ir.Shape
module Op = Magis_ir.Op
module Graph = Magis_ir.Graph
module Graph_index = Magis_ir.Graph_index
module Dominator = Magis_ir.Dominator
module Reach = Magis_ir.Reach
module Wl_hash = Magis_ir.Wl_hash
module Util = Magis_ir.Util

(* cost model and simulator *)
module Hardware = Magis_cost.Hardware
module Op_cost = Magis_cost.Op_cost
module Lifetime = Magis_cost.Lifetime
module Simulator = Magis_cost.Simulator
module Allocator = Magis_cost.Allocator
module Sim_cache = Magis_cost.Sim_cache

(* observability: tracing, metrics, timeline/profile export *)
module Json = Magis_obs.Json
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics
module Timeline = Magis_obs.Timeline
module Profile = Magis_obs.Profile

(* resilience: fault injection, retry, crash-safe checkpoints *)
module Fault = Magis_resilience.Fault
module Retry = Magis_resilience.Retry
module Checkpoint = Magis_resilience.Checkpoint
module Interrupt = Magis_resilience.Interrupt

(* dimension graph and fission *)
module Dgraph = Magis_dgraph.Dgraph
module Fission = Magis_ftree.Fission
module Ftree = Magis_ftree.Ftree
module Spatial = Magis_ftree.Spatial

(* static analysis: IR verifier, schedule checker, rule lint, symbolic
   rule-soundness proofs and allocator interference *)
module Diagnostic = Magis_analysis.Diagnostic
module Verify = Magis_analysis.Verify
module Sched_check = Magis_analysis.Sched_check
module Rule_lint = Magis_analysis.Rule_lint
module Liveness = Magis_analysis.Liveness
module Membound = Magis_analysis.Membound
module Analysis_hooks = Magis_analysis.Hooks
module Symshape = Magis_analysis.Symshape
module Rule_sound = Magis_analysis.Rule_sound
module Interfere = Magis_analysis.Interfere

(* transformation rules *)
module Rule = Magis_rules.Rule
module Sched_rules = Magis_rules.Sched_rules
module Taso_rules = Magis_rules.Taso_rules

(* scheduling *)
module Partition = Magis_sched.Partition
module Reorder = Magis_sched.Reorder
module Incremental = Magis_sched.Incremental

(* optimizer *)
module Mstate = Magis_opt.Mstate
module Search = Magis_opt.Search

(* model zoo *)
module Builder = Magis_models.Builder
module Autodiff = Magis_models.Autodiff
module Resnet = Magis_models.Resnet
module Transformer = Magis_models.Transformer
module Unet = Magis_models.Unet
module Randnet = Magis_models.Randnet
module Zoo = Magis_models.Zoo

(* baselines *)
module Outcome = Magis_baselines.Outcome
module Chain = Magis_baselines.Chain
module Naive = Magis_baselines.Naive
module Fusion_compiler = Magis_baselines.Fusion_compiler
module Pofo = Magis_baselines.Pofo
module Xla = Magis_baselines.Xla
module Dtr = Magis_baselines.Dtr
module Microbatch = Magis_baselines.Microbatch

(* code generation and export *)
module Pytorch_codegen = Magis_codegen.Pytorch
module Export = Magis_codegen.Export

(* frontier service: dominance-pruned Pareto sets, cached on disk *)
module Frontier = Magis_frontier.Frontier
module Frontier_cache = Magis_frontier.Frontier_cache
module Frontier_build = Magis_frontier.Frontier_build

(* optimization service *)
module Serve_protocol = Magis_serve.Protocol
module Serve_server = Magis_serve.Server
module Serve_client = Magis_serve.Client
module Serve_loadgen = Magis_serve.Loadgen
