let () =
  Alcotest.run "umf_meanfield"
    (Test_policy.suites @ Test_ssa.suites
   @ Test_convergence.suites @ Test_model.suites
   @ Test_ctmc_of_population.suites)
