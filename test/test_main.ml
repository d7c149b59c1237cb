let () =
  Alcotest.run "falseshare"
    [ ("util", Test_util.suite);
      ("ir", Test_ir.suite);
      ("rsd", Test_rsd.suite);
      ("cfg", Test_cfg.suite);
      ("analysis", Test_analysis.suite);
      ("layout", Test_layout.suite);
      ("interp", Test_interp.suite);
      ("cache", Test_cache.suite);
      ("machine", Test_machine.suite);
      ("transform", Test_transform.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("request", Test_request.suite);
      ("parc", Test_parc.suite);
      ("trace", Test_trace.suite);
      ("tracefmt", Test_tracefmt.suite);
      ("replay", Test_replay.suite);
      ("sharded", Test_sharded.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("telemetry", Test_telemetry.suite);
      ("phases", Test_phases.suite);
      ("sched", Test_sched.suite);
      ("feedback", Test_feedback.suite);
      ("fuzz", Test_fuzz.suite) ]
