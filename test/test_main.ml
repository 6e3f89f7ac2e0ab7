let () =
  Alcotest.run "rankopt"
    (List.concat
       [
         Test_rkutil.suites;
         Test_relalg.suites;
         Test_storage.suites;
         Test_dml_stats.suites;
         Test_dml_scan.suites;
         Test_btree.suites;
         Test_exec.suites;
         Test_vector.suites;
         Test_metrics.suites;
         Test_rank_join.suites;
         Test_any_k.suites;
         Test_ranking.suites;
         Test_workload.suites;
         Test_core_model.suites;
         Test_core_optimizer.suites;
         Test_sqlfront.suites
         @ [ Test_sqlfront.group_by_suite; Test_sqlfront.with_form_suite;
             Test_sqlfront.dml_suite; Test_sqlfront.update_suite;
             Test_sqlfront.rank_window_suite ];
         Test_unclustered.suites;
         Test_aggregate.suites;
         Test_baselines.suites;
         Test_robustness.suites;
         Test_integration.suites;
         Test_plan_verify.suites;
         Test_lint.suites;
         Test_mutation.suites;
         Test_nary.suites @ [ Test_nary.optimizer_suite ];
         Test_ranked_view.suites;
         Test_slab_estimation.suites;
         Test_persist.suites;
         Test_codec.suites;
         Test_coverage.suites;
         Test_consistency.suites;
         Test_rankcheck.suites;
         Test_concurrency.suites;
         Test_server.suites;
         Test_shard.suites;
         Test_sanitize.suites;
         Test_keys.suites;
       ])
