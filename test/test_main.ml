let () =
  Alcotest.run "qir_ocaml"
    [
      ("llvm_ir", Test_llvm_ir.suite);
      ("passes", Test_passes.suite);
      ("circuit", Test_circuit.suite);
      ("simulator", Test_simulator.suite);
      ("engine", Test_engine.suite);
      ("kernels", Test_kernels.suite);
      ("qir", Test_qir.suite);
      ("analysis", Test_analysis.suite);
      ("runtime", Test_runtime.suite);
      ("resilience", Test_resilience.suite);
      ("mapping", Test_mapping.suite);
      ("hybrid", Test_hybrid.suite);
      ("algorithms", Test_algorithms.suite);
      ("misc", Test_misc.suite);
      ("gateset", Test_gateset.suite);
      ("noise", Test_noise.suite);
      ("commute", Test_commute.suite);
      ("density", Test_density.suite);
      ("bytecode", Test_bytecode.suite);
      ("storage", Test_storage.suite);
      ("service", Test_service.suite);
    ]
