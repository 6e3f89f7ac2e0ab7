(* Tests for unclustered indexes and model-guided (ratio) polling — the
   pieces that make the paper's Figure 1 cost tradeoff reproducible. *)

open Relalg
open Storage

let two_col_schema =
  Schema.of_columns
    [ Schema.column "id" Value.Tint; Schema.column "score" Value.Tfloat ]

let setup ?(n = 200) () =
  let cat = Catalog.create ~pool_frames:8 ~tuples_per_page:10 () in
  let prng = Rkutil.Prng.create 17 in
  let tuples =
    List.init n (fun i -> Tuple.make [ Value.Int i; Value.Float (Rkutil.Prng.uniform prng) ])
  in
  ignore (Catalog.create_table cat "T" two_col_schema tuples);
  let ix =
    Catalog.create_index cat ~clustered:false ~name:"T_score" ~table:"T"
      ~key:(Expr.col ~relation:"T" "score") ()
  in
  (cat, ix, tuples)

let test_unclustered_scan_returns_base_tuples () =
  let cat, ix, tuples = setup () in
  let out = Exec.Operator.to_list (Exec.Scan.index_desc cat ix) in
  Alcotest.(check int) "all tuples" (List.length tuples) (List.length out);
  (* Every returned tuple is a real base tuple (2 columns, not a rid pair
     mistaken for data). *)
  List.iter
    (fun tu ->
      Alcotest.(check int) "arity" 2 (Tuple.arity tu);
      Alcotest.(check bool) "is a base tuple" true
        (List.exists (Tuple.equal tu) tuples))
    out

let test_unclustered_scan_sorted () =
  let cat, ix, _ = setup () in
  let out = Exec.Operator.scored_to_list (Exec.Scan.index_desc_scored cat ix) in
  Test_util.check_non_increasing "desc order" (List.map snd out)

let test_unclustered_lookup () =
  let cat, ix, tuples = setup () in
  let target = List.nth tuples 7 in
  let key = Tuple.get target 1 in
  let hits = Catalog.index_lookup cat ix key in
  Alcotest.(check bool) "found" true (List.exists (Tuple.equal target) hits)

let test_unclustered_scan_charges_heap_io () =
  (* With an 8-frame pool over a 20-page table, random fetches must miss. *)
  let cat, ix, _ = setup () in
  Catalog.reset_io cat;
  ignore (Exec.Operator.to_list (Exec.Scan.index_desc cat ix));
  let snap = Io_stats.snapshot (Catalog.io cat) in
  Alcotest.(check bool) "heap page reads happened" true
    (snap.Io_stats.page_reads > 20)

let test_clustered_scan_reads_no_heap_pages () =
  let cat = Catalog.create ~pool_frames:8 ~tuples_per_page:10 () in
  let prng = Rkutil.Prng.create 18 in
  let tuples =
    List.init 200 (fun i -> Tuple.make [ Value.Int i; Value.Float (Rkutil.Prng.uniform prng) ])
  in
  ignore (Catalog.create_table cat "T" two_col_schema tuples);
  let ix =
    Catalog.create_index cat ~name:"T_score" ~table:"T"
      ~key:(Expr.col ~relation:"T" "score") ()
  in
  Catalog.reset_io cat;
  ignore (Exec.Operator.to_list (Exec.Scan.index_desc cat ix));
  let snap = Io_stats.snapshot (Catalog.io cat) in
  Alcotest.(check int) "no heap reads" 0 snap.Io_stats.page_reads;
  Alcotest.(check bool) "index nodes read" true (snap.Io_stats.index_node_reads > 0)

let test_cost_model_prefers_clustered () =
  (* The same logical index scan must cost more when unclustered and the
     pool is small. *)
  let make clustered =
    let cat = Catalog.create ~pool_frames:8 ~tuples_per_page:10 () in
    let prng = Rkutil.Prng.create 19 in
    let tuples =
      List.init 500 (fun i ->
          Tuple.make [ Value.Int i; Value.Float (Rkutil.Prng.uniform prng) ])
    in
    ignore (Catalog.create_table cat "T" two_col_schema tuples);
    ignore
      (Catalog.create_index cat ~clustered ~name:"T_score" ~table:"T"
         ~key:(Expr.col ~relation:"T" "score") ());
    let q =
      Core.Logical.make
        ~relations:[ Core.Logical.base ~score:(Expr.col ~relation:"T" "score") "T" ]
        ~joins:[] ~k:10 ()
    in
    let env = Core.Cost_model.default_env ~k_min:10 cat q in
    let plan =
      Core.Plan.Index_scan
        { table = "T"; index = "T_score"; key = Expr.col ~relation:"T" "score"; desc = true }
    in
    (Core.Cost_model.estimate env plan).Core.Cost_model.total_cost
  in
  Alcotest.(check bool) "unclustered dearer" true (make false > make true)

(* --- ratio polling --- *)

let scored_stream rel =
  let sorted = Relation.sort_by ~desc:true (Expr.col "score") rel in
  Exec.Operator.scored_of_list (Relation.schema rel)
    (List.map
       (fun tu -> (tu, Value.to_float (Tuple.get tu 2)))
       (Relation.tuples sorted))

let rank_input rel =
  { Exec.Rank_join.stream = scored_stream rel; key = (fun tu -> Tuple.get tu 1) }

let test_ratio_polling_correct_and_respects_ratio () =
  let ra = Test_util.scored_relation "A" ~n:300 ~domain:10 ~seed:71 in
  let rb = Test_util.scored_relation "B" ~n:300 ~domain:10 ~seed:72 in
  let run polling =
    let stream, stats =
      Exec.Rank_join.hrjn ~polling ~combine:( +. ) ~inputs:[ rank_input ra; rank_input rb ] ()
    in
    (Exec.Operator.scored_take stream 10, stats)
  in
  let baseline, _ = run Exec.Rank_join.Alternate in
  List.iter
    (fun ratio ->
      let results, stats = run (Exec.Rank_join.Ratio ratio) in
      Test_util.check_score_multiset
        (Printf.sprintf "ratio %.2f same top-10" ratio)
        (List.map snd baseline) (List.map snd results);
      (* The consumption ratio should be near the target (within the
         granularity the threshold stop allows). *)
      let actual =
        float_of_int (Exec.Exec_stats.left_depth stats)
        /. float_of_int (max 1 (Exec.Exec_stats.right_depth stats))
      in
      if (Exec.Exec_stats.left_depth stats) < 300 && (Exec.Exec_stats.right_depth stats) < 300
      then
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.2f respected (got %.2f)" ratio actual)
          true
          (actual <= ratio *. 1.5 +. 0.1))
    [ 0.25; 0.5; 1.0; 2.0 ]

let prop_ratio_polling_always_correct =
  QCheck.Test.make ~name:"hrjn ratio polling: any ratio gives correct top-k"
    ~count:40
    QCheck.(pair Test_util.small_rel_params (QCheck.float_range 0.1 4.0))
    (fun ((seed, n, domain), ratio) ->
      let ra = Test_util.scored_relation "A" ~n ~domain ~seed in
      let rb = Test_util.scored_relation "B" ~n ~domain ~seed:(seed + 500) in
      let stream, _ =
        Exec.Rank_join.hrjn
          ~polling:(Exec.Rank_join.Ratio ratio)
          ~combine:( +. ) ~inputs:[ rank_input ra; rank_input rb ] ()
      in
      let results = Exec.Operator.scored_take stream 8 in
      let joined =
        Relation.join
          ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
          ra rb
      in
      let oracle =
        Relation.top_k
          ~score:Expr.(col ~relation:"A" "score" + col ~relation:"B" "score")
          ~k:8 joined
      in
      let e = Test_util.score_multiset (List.map snd oracle) in
      let a = Test_util.score_multiset (List.map snd results) in
      List.length e = List.length a
      && List.for_all2 (fun x y -> Test_util.floats_close ~eps:1e-7 x y) e a)

let test_executor_uses_hints () =
  (* Run the same plan with and without hints; both must agree on results. *)
  let cat = Catalog.create ~pool_frames:32 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (80 + i))
           ~name ~n:400 ~key_domain:40 ()))
    [ "A"; "B" ];
  let q =
    Core.Logical.make
      ~relations:
        [
          Core.Logical.base ~score:(Expr.col ~relation:"A" "score") "A";
          Core.Logical.base ~score:(Expr.col ~relation:"B" "score") "B";
        ]
      ~joins:[ Core.Logical.equijoin ("A", "key") ("B", "key") ]
      ~k:10 ()
  in
  let env = Core.Cost_model.default_env ~k_min:10 cat q in
  let ix t =
    (Option.get
       (Catalog.find_index_on_expr cat ~table:t (Expr.col ~relation:t "score")))
      .Catalog.ix_name
  in
  let iscan t =
    Core.Plan.Index_scan
      { table = t; index = ix t; key = Expr.col ~relation:t "score"; desc = true }
  in
  let plan =
    Core.Plan.Top_k
      {
        k = 10;
        input =
          Core.Plan.Rank_join
            {
              inputs = [ iscan "A"; iscan "B" ];
              scores =
                [ Expr.col ~relation:"A" "score"; Expr.col ~relation:"B" "score" ];
              keys = [ ("A", "key"); ("B", "key") ];
            };
      }
  in
  let bare = Core.Executor.run cat plan in
  let hints = Core.Propagate.run env ~k:10 plan in
  let hinted = Core.Executor.run ~hints cat plan in
  Test_util.check_score_multiset "hinted = unhinted"
    (List.map snd bare.Core.Executor.rows)
    (List.map snd hinted.Core.Executor.rows)

let test_selectivity_estimate_uses_int_range () =
  (* 500 keys drawn from a domain of 100000: the distinct count alone would
     say s = 1/500; the range-aware estimator should say ~1/100000. *)
  let cat = Catalog.create () in
  let prng = Rkutil.Prng.create 90 in
  let mk () =
    List.init 500 (fun i ->
        Tuple.make
          [ Value.Int (Rkutil.Prng.int prng 100_000); Value.Float (float_of_int i) ])
  in
  let schema =
    Schema.of_columns
      [ Schema.column "key" Value.Tint; Schema.column "score" Value.Tfloat ]
  in
  ignore (Catalog.create_table cat "L" schema (mk ()));
  ignore (Catalog.create_table cat "R" schema (mk ()));
  let s = Catalog.estimate_join_selectivity cat ~left:("L", "key") ~right:("R", "key") in
  Alcotest.(check bool) "close to 1e-5" true (s < 5e-5 && s > 5e-6)

let suites =
  [
    ( "storage.unclustered",
      [
        Alcotest.test_case "scan resolves tuples" `Quick
          test_unclustered_scan_returns_base_tuples;
        Alcotest.test_case "scan sorted" `Quick test_unclustered_scan_sorted;
        Alcotest.test_case "lookup" `Quick test_unclustered_lookup;
        Alcotest.test_case "charges heap io" `Quick test_unclustered_scan_charges_heap_io;
        Alcotest.test_case "clustered reads no heap" `Quick
          test_clustered_scan_reads_no_heap_pages;
        Alcotest.test_case "cost model aware" `Quick test_cost_model_prefers_clustered;
        Alcotest.test_case "selectivity via int range" `Quick
          test_selectivity_estimate_uses_int_range;
      ] );
    ( "exec.ratio_polling",
      [
        Alcotest.test_case "correct + respects ratio" `Quick
          test_ratio_polling_correct_and_respects_ratio;
        Alcotest.test_case "executor hints" `Quick test_executor_uses_hints;
        QCheck_alcotest.to_alcotest prop_ratio_polling_always_correct;
      ] );
  ]
