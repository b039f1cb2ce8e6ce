let () =
  Alcotest.run "umf_numerics"
    (Test_vec.suites @ Test_mat.suites @ Test_interval.suites @ Test_rng.suites
   @ Test_stats.suites @ Test_ode.suites @ Test_optim.suites
   @ Test_geometry.suites @ Test_diff.suites
   @ Test_expr.suites @ Test_tape.suites)
