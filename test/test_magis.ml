(** Test-suite entry point: one alcotest run over every module suite,
    with the verification hooks armed so every schedule a baseline emits
    is checked. *)

let () =
  Magis.Analysis_hooks.set true;
  Alcotest.run "magis"
    [
      ("shape", Test_shape.suite);
      ("op", Test_op.suite);
      ("dim-semantics", Test_dim_semantics.suite);
      ("graph", Test_graph.suite);
      ("dominator", Test_dominator.suite);
      ("wl_hash", Test_wl_hash.suite);
      ("cost", Test_cost.suite);
      ("lifetime", Test_lifetime.suite);
      ("simulator", Test_simulator.suite);
      ("dgraph", Test_dgraph.suite);
      ("fission", Test_fission.suite);
      ("ftree", Test_ftree.suite);
      ("spatial", Test_spatial.suite);
      ("sched", Test_sched.suite);
      ("incremental", Test_incremental.suite);
      ("invariants", Test_invariants.suite);
      ("incr-core", Test_incr.suite);
      ("rules", Test_rules.suite);
      ("verify", Test_verify.suite);
      ("symshape", Test_symshape.suite);
      ("rule-sound", Test_rule_sound.suite);
      ("interfere", Test_interfere.suite);
      ("membound", Test_membound.suite);
      ("autodiff", Test_autodiff.suite);
      ("models", Test_models.suite);
      ("baselines", Test_baselines.suite);
      ("outcome", Test_outcome.suite);
      ("search", Test_search.suite);
      ("par", Test_par.suite);
      ("resilience", Test_resilience.suite);
      ("serve", Test_serve.suite);
      ("frontier", Test_frontier.suite);
      ("obs", Test_obs.suite);
      ("properties", Test_props.suite);
      ("codegen", Test_codegen.suite);
      ("allocator", Test_allocator.suite);
      ("equivalence", Test_equivalence.suite);
      ("integration", Test_integration.suite);
      ("bench", Test_bench.suite);
    ]
