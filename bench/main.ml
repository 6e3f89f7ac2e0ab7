(* Experiment harness: regenerates every table and figure of the paper's
   evaluation. Run all experiments with

     dune exec bench/main.exe

   or a subset, e.g.

     dune exec bench/main.exe -- fig1 fig13 micro *)

let experiments =
  [
    ("fig1", Experiments.fig1);
    ("fig2", Experiments.fig2);
    ("fig3", Experiments.fig3);
    ("table1", Experiments.table1);
    ("fig4", Experiments.fig4);
    ("fig6", Experiments.fig6);
    ("fig13", Experiments.fig13);
    ("fig14", Experiments.fig14);
    ("fig15", Experiments.fig15);
    ("ablate-polling", Experiments.ablate_polling);
    ("ablate-depthmode", Experiments.ablate_depth_mode);
    ("ablate-rankaware", Experiments.ablate_rank_awareness);
    ("ablate-nary", Experiments.ablate_nary);
    ("ablate-slabs", Experiments.ablate_slabs);
    ("baseline-fr", Experiments.baseline_filter_restart);
    ("profile", Experiments.profile);
    ("micro", Micro.run);
    ("serve", Serve_bench.run);
    ("lint", Lint_bench.run);
    ("perf", fun () -> Perf.run ());
    ("perf-smoke", fun () -> Perf.run ~smoke:true ());
    ("anyk", fun () -> Anyk_bench.run ());
    ("anyk-smoke", fun () -> Anyk_bench.run ~smoke:true ());
    ("leaderboard", fun () -> Leaderboard_bench.run ());
    ("leaderboard-smoke", fun () -> Leaderboard_bench.run ~smoke:true ());
    ("shard", fun () -> Shard_bench.run ());
    ("shard-smoke", fun () -> Shard_bench.run ~smoke:true ());
    ("sanitize", fun () -> Sanitize_bench.run ());
    ("sanitize-smoke", fun () -> Sanitize_bench.run ~smoke:true ());
    ("vector", fun () -> Vector_bench.run ());
    ("vector-smoke", fun () -> Vector_bench.run ~smoke:true ());
    ("plan", fun () -> Plan_bench.run ());
    ("plan-smoke", fun () -> Plan_bench.run ~smoke:true ());
    ("nary", fun () -> Nary_bench.run ());
    ("nary-smoke", fun () -> Nary_bench.run ~smoke:true ());
  ]

let usage () =
  Printf.printf "usage: main.exe [experiment ...]\navailable experiments:\n";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | [ "--help" ] | [ "-h" ] | [ "help" ] -> usage ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.printf "unknown experiment %s\n" name;
              usage ();
              exit 1)
        names
