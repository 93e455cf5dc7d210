let () =
  Alcotest.run "mlt"
    [
      ("support", Test_support.suite);
      ("intern", Test_intern.suite);
      ("affine-expr", Test_affine_expr.suite);
      ("ir-core", Test_ir_core.suite);
      ("ir-parser", Test_parser.suite);
      ("met", Test_met.suite);
      ("interp", Test_interp.suite);
      ("interp-compile", Test_interp_compile.suite);
      ("matchers", Test_matchers.suite);
      ("tdl", Test_tdl.suite);
      ("transforms", Test_transforms.suite);
      ("interchange", Test_interchange.suite);
      ("dependence", Test_dependence.suite);
      ("machine", Test_machine.suite);
      ("raise-scf", Test_raise_scf.suite);
      ("delinearize", Test_delinearize.suite);
      ("random", Test_random.suite);
      ("pass-manager", Test_pass.suite);
      ("trace", Test_trace.suite);
      ("metrics", Test_metrics.suite);
      ("provenance", Test_provenance.suite);
      ("remarks", Test_remarks.suite);
      ("blis-schedule", Test_blis.suite);
      ("unroll", Test_unroll.suite);
      ("misc", Test_misc.suite);
      ("negative-controls", Test_negative.suite);
      ("mlt", Test_mlt.suite);
      ("transform-dialect", Test_transform_dialect.suite);
      ("tune", Test_tune.suite);
      ("pool", Test_pool.suite);
      ("batch", Test_batch.suite);
      ("cache", Test_cache.suite);
      ("counters", Test_counters.suite);
    ]
