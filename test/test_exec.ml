(* Tests for scans, filters, sort, and the traditional join operators. *)

open Relalg
open Exec

let setup_catalog ?(n = 60) ?(domain = 6) ?(seed = 3) () =
  let cat = Storage.Catalog.create () in
  let prng = Rkutil.Prng.create seed in
  ignore
    (Workload.Generator.load_scored_table cat prng ~name:"A" ~n
       ~key_domain:domain ());
  ignore
    (Workload.Generator.load_scored_table cat
       (Rkutil.Prng.create (seed + 1))
       ~name:"B" ~n ~key_domain:domain ());
  cat

let relation_of_table cat name =
  let info = Storage.Catalog.table cat name in
  Relation.create info.Storage.Catalog.tb_schema
    (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)

let sort_budget cat = Sort.budget (Storage.Catalog.pool cat)

let test_heap_scan_roundtrip () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let out = Operator.to_list (Scan.heap info) in
  Alcotest.(check int) "all tuples" 60 (List.length out)

let test_scan_restartable () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let op = Scan.heap info in
  let a = Operator.to_list op in
  let b = Operator.to_list op in
  Alcotest.(check bool) "same output twice" true (List.equal Tuple.equal a b)

let test_index_scan_sorted () =
  let cat = setup_catalog () in
  let ix = Option.get (Storage.Catalog.find_index_on_expr cat ~table:"A"
      (Expr.col ~relation:"A" "score")) in
  let scored = Scan.index_desc_scored cat ix in
  let out = Operator.scored_to_list scored in
  Alcotest.(check int) "all tuples" 60 (List.length out);
  Test_util.check_non_increasing "index desc scores" (List.map snd out)

let test_filter () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let pred = Expr.(Cmp (Ge, col ~relation:"A" "score", cfloat 0.5)) in
  let out = Operator.to_list (Basic_ops.filter pred (Scan.heap info)) in
  let schema = info.Storage.Catalog.tb_schema in
  let score_idx = Schema.index_of_exn schema ~relation:"A" "score" in
  List.iter
    (fun tu ->
      Alcotest.(check bool) "predicate holds" true
        (Value.to_float (Tuple.get tu score_idx) >= 0.5))
    out;
  let total = Relation.cardinality (relation_of_table cat "A") in
  let kept = List.length out in
  Alcotest.(check bool) "some filtered" true (kept < total)

let test_project () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let out =
    Operator.to_list
      (Basic_ops.project [ (Some "A", "score") ] (Scan.heap info))
  in
  List.iter (fun tu -> Alcotest.(check int) "arity 1" 1 (Tuple.arity tu)) out

let test_project_exprs () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let doubled =
    Basic_ops.project_exprs
      [
        ( Expr.(cfloat 2.0 * col ~relation:"A" "score"),
          Schema.column "double_score" Value.Tfloat );
      ]
      (Scan.heap info)
  in
  let out = Operator.to_list doubled in
  Alcotest.(check int) "count" 60 (List.length out);
  List.iter
    (fun tu ->
      let v = Value.to_float (Tuple.get tu 0) in
      Alcotest.(check bool) "in [0,2)" true (v >= 0.0 && v < 2.0))
    out

let test_limit () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let out = Operator.to_list (Basic_ops.limit 7 (Scan.heap info)) in
  Alcotest.(check int) "limited" 7 (List.length out);
  (* Restart resets the limit. *)
  let op = Basic_ops.limit 7 (Scan.heap info) in
  ignore (Operator.to_list op);
  Alcotest.(check int) "after restart" 7 (List.length (Operator.to_list op))

let test_sort_in_memory () =
  let cat = setup_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let sorted =
    Sort.by_expr (sort_budget cat) ~desc:true (Expr.col ~relation:"A" "score")
      (Scan.heap info)
  in
  let out = Operator.to_list sorted in
  let schema = info.Storage.Catalog.tb_schema in
  let score_idx = Schema.index_of_exn schema ~relation:"A" "score" in
  let scores = List.map (fun tu -> Value.to_float (Tuple.get tu score_idx)) out in
  Alcotest.(check int) "count preserved" 60 (List.length out);
  Test_util.check_non_increasing "sorted desc" scores

let test_sort_spills_and_charges_io () =
  let cat = setup_catalog ~n:500 () in
  let info = Storage.Catalog.table cat "A" in
  let io = Storage.Catalog.io cat in
  let tiny =
    Sort.budget ~memory_tuples:50 ~tuples_per_page:10 ~fan_in:3
      (Storage.Catalog.pool cat)
  in
  Storage.Io_stats.reset io;
  let sorted = Sort.by_expr tiny (Expr.col ~relation:"A" "score") (Scan.heap info) in
  let out = Operator.to_list sorted in
  Alcotest.(check int) "count preserved" 500 (List.length out);
  let snap = Storage.Io_stats.snapshot io in
  Alcotest.(check bool) "spill writes occurred" true (snap.Storage.Io_stats.page_writes > 0)

let prop_sort_is_permutation_and_ordered =
  QCheck.Test.make ~name:"sort: permutation and ordered (any memory budget)"
    ~count:60
    QCheck.(pair Test_util.small_rel_params (QCheck.int_range 2 40))
    (fun ((seed, n, domain), mem) ->
      let rel = Test_util.scored_relation "T" ~n ~domain ~seed in
      let io = Storage.Io_stats.create () in
      let pool = Storage.Buffer_pool.create ~frames:16 io in
      let b = Sort.budget ~memory_tuples:mem ~tuples_per_page:5 ~fan_in:3 pool in
      let op = Operator.of_list (Relation.schema rel) (Relation.tuples rel) in
      let sorted = Operator.to_list (Sort.by_expr b (Expr.col ~relation:"T" "score") op) in
      let score tu = Value.to_float (Tuple.get tu 2) in
      let ordered =
        let rec go = function
          | a :: (b :: _ as rest) -> score a <= score b && go rest
          | _ -> true
        in
        go sorted
      in
      let permutation =
        List.sort Tuple.compare sorted
        = List.sort Tuple.compare (Relation.tuples rel)
      in
      ordered && permutation)

(* All physical equi-join implementations must agree with the naive oracle. *)
let join_all_ways cat =
  let a = Storage.Catalog.table cat "A" in
  let b = Storage.Catalog.table cat "B" in
  let left_key = Expr.col ~relation:"A" "key" in
  let right_key = Expr.col ~relation:"B" "key" in
  let pred = Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") in
  let scan_a () = Scan.heap a and scan_b () = Scan.heap b in
  let ix_b_key =
    Option.get
      (Storage.Catalog.find_index_on_expr cat ~table:"B"
         (Expr.col ~relation:"B" "key"))
  in
  [
    ("nested_loops", Join.nested_loops ~block_size:7 ~pred (scan_a ()) (scan_b ()));
    ( "index_nl",
      Join.index_nested_loops ~left_key
        ~right_schema:b.Storage.Catalog.tb_schema
        ~lookup:(Scan.index_probe cat ix_b_key)
        (scan_a ()) );
    ("hash", Join.hash ~left_key ~right_key (scan_a ()) (scan_b ()));
    ( "sort_merge",
      Join.sort_merge ~left_key ~right_key (sort_budget cat) (scan_a ()) (scan_b ()) );
  ]

let test_joins_agree_with_oracle () =
  let cat = setup_catalog ~n:50 ~domain:5 () in
  let ra = relation_of_table cat "A" and rb = relation_of_table cat "B" in
  let oracle =
    Relation.join ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") ra rb
  in
  List.iter
    (fun (name, op) ->
      let got = Operator.to_list op in
      let got_rel = Relation.create (Schema.concat (Relation.schema ra) (Relation.schema rb)) got in
      Alcotest.(check bool) (name ^ " matches oracle") true
        (Relation.equal_bag oracle got_rel))
    (join_all_ways cat)

let prop_joins_agree =
  QCheck.Test.make ~name:"joins: all implementations = oracle" ~count:40
    Test_util.small_rel_params
    (fun (seed, n, domain) ->
      let ra = Test_util.scored_relation "A" ~n ~domain ~seed in
      let rb = Test_util.scored_relation "B" ~n:(max 1 (n / 2)) ~domain ~seed:(seed + 1) in
      let pred = Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") in
      let oracle = Relation.join ~on:pred ra rb in
      let io = Storage.Io_stats.create () in
      let pool = Storage.Buffer_pool.create io in
      let b = Sort.budget pool in
      let opa () = Operator.of_list (Relation.schema ra) (Relation.tuples ra) in
      let opb () = Operator.of_list (Relation.schema rb) (Relation.tuples rb) in
      let lk = Expr.col ~relation:"A" "key" and rk = Expr.col ~relation:"B" "key" in
      let impls =
        [
          Join.nested_loops ~block_size:3 ~pred (opa ()) (opb ());
          Join.hash ~left_key:lk ~right_key:rk (opa ()) (opb ());
          Join.sort_merge ~left_key:lk ~right_key:rk b (opa ()) (opb ());
        ]
      in
      let joined_schema = Schema.concat (Relation.schema ra) (Relation.schema rb) in
      List.for_all
        (fun op ->
          Relation.equal_bag oracle
            (Relation.create joined_schema (Operator.to_list op)))
        impls)

let test_join_with_residual () =
  let cat = setup_catalog ~n:40 ~domain:4 () in
  let a = Storage.Catalog.table cat "A" in
  let b = Storage.Catalog.table cat "B" in
  let residual =
    Expr.(Cmp (Gt, col ~relation:"A" "score", col ~relation:"B" "score"))
  in
  let joined =
    Join.hash ~residual
      ~left_key:(Expr.col ~relation:"A" "key")
      ~right_key:(Expr.col ~relation:"B" "key")
      (Scan.heap a) (Scan.heap b)
  in
  let schema = joined.Operator.schema in
  let ia = Schema.index_of_exn schema ~relation:"A" "score" in
  let ib = Schema.index_of_exn schema ~relation:"B" "score" in
  List.iter
    (fun tu ->
      Alcotest.(check bool) "residual holds" true
        (Value.to_float (Tuple.get tu ia) > Value.to_float (Tuple.get tu ib)))
    (Operator.to_list joined)

let test_top_n_matches_sort () =
  let cat = setup_catalog ~n:80 () in
  let info = Storage.Catalog.table cat "A" in
  let score = Expr.col ~relation:"A" "score" in
  let top = Operator.scored_to_list (Top_n.by_expr ~k:10 score (Scan.heap info)) in
  let rel = relation_of_table cat "A" in
  let oracle = Relation.top_k ~score ~k:10 rel in
  Test_util.check_score_multiset "top-n = sort top-k" (List.map snd oracle)
    (List.map snd top);
  Test_util.check_non_increasing "top-n ordered" (List.map snd top)

let nan_schema =
  Schema.of_columns
    [ Schema.column "id" Value.Tint; Schema.column "s" Value.Tfloat ]

let nan_row i f = Tuple.make [ Value.Int i; Value.Float f ]

(* A NaN score must be dropped on entry — in particular a NaN that arrives
   while the heap is filling would otherwise sit at the root and reject every
   later tuple (all comparisons against NaN are false). *)
let test_top_n_drops_nan () =
  let rows =
    [ nan_row 0 Float.nan; nan_row 1 5.0; nan_row 2 3.0; nan_row 3 Float.nan;
      nan_row 4 9.0; nan_row 5 1.0 ]
  in
  let out =
    Operator.scored_to_list
      (Top_n.by_expr ~k:3 (Expr.col "s") (Operator.of_list nan_schema rows))
  in
  Alcotest.(check (list (float 0.0)))
    "NaN never ranks" [ 9.0; 5.0; 3.0 ] (List.map snd out)

(* Score ties are broken on tuple contents, so the selected set and its
   emission order must be identical for any arrival order of the input. *)
let test_top_n_tie_determinism () =
  let rows =
    [ nan_row 1 5.0; nan_row 2 5.0; nan_row 3 5.0; nan_row 4 5.0; nan_row 5 2.0 ]
  in
  let run order =
    Operator.scored_to_list
      (Top_n.by_expr ~k:2 (Expr.col "s") (Operator.of_list nan_schema order))
  in
  let forward = run rows and backward = run (List.rev rows) in
  Alcotest.(check int) "k rows" 2 (List.length forward);
  Alcotest.(check bool) "order-independent" true
    (List.equal
       (fun (t1, s1) (t2, s2) -> Tuple.equal t1 t2 && Float.equal s1 s2)
       forward backward)

let test_top_n_reports_stats () =
  let cat = setup_catalog ~n:80 () in
  let info = Storage.Catalog.table cat "A" in
  let stats = Exec_stats.create 1 in
  let top =
    Top_n.by_expr ~stats ~k:10 (Expr.col ~relation:"A" "score")
      (Scan.heap info)
  in
  let out = Operator.scored_to_list top in
  Alcotest.(check int) "whole input consumed" 80 (Exec_stats.depth stats 0);
  Alcotest.(check int) "heap bounded by k" 10 (Exec_stats.buffer_max stats);
  Alcotest.(check int) "emitted = |output|" (List.length out)
    (Exec_stats.emitted stats)

(* -- Allocation budgets of the pull path ------------------------------- *)

(* Minor words are deterministic for a single-domain run of one build, so
   each budget below is a hard bound: at most half of what the path
   allocated before it stopped making per-tuple garbage (that figure is
   noted beside each budget). The data is the dashboard shape, 2 000 rows
   per table over a key domain of 200, and every page stays in the pool. *)
let pull_catalog () =
  let cat = Storage.Catalog.create ~pool_frames:512 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (101 + i))
           ~name ~n:2000 ~key_domain:200 ()))
    [ "A"; "B" ];
  cat

(* The minor words [f ()] allocates and the units of work it reports,
   after one warm-up call (pages faulted into the pool, tables grown). *)
let measure f =
  ignore (f () : int);
  let w0 = Gc.minor_words () in
  let units = f () in
  (Gc.minor_words () -. w0, units)

let words_per f =
  let words, units = measure f in
  words /. float_of_int units

let drain (op : Operator.t) =
  op.open_ ();
  let rec loop n = match op.next () with Some _ -> loop (n + 1) | None -> n in
  let n = loop 0 in
  op.close ();
  n

let check_budget what ~budget words =
  if words > budget then
    Alcotest.failf "%s: %.2f minor words per tuple or call, budget %.2f" what
      words budget

let score_index cat t =
  Option.get
    (Storage.Catalog.find_index_on_expr cat ~table:t
       (Expr.col ~relation:t "score"))

let test_heap_scan_words () =
  let cat = pull_catalog () in
  let op = Scan.heap (Storage.Catalog.table cat "A") in
  (* 8.55 words per tuple before: the tuples-read closure and a second
     option *)
  check_budget "heap scan" ~budget:4.0 (words_per (fun () -> drain op))

let test_index_scan_words () =
  let cat = pull_catalog () in
  let op = Scan.index_desc cat (score_index cat "A") in
  (* 40.4 words per tuple before: the table lookup, the rid record, the
     pool latch's closures, LRU links and the tuples-read closures *)
  check_budget "unclustered index scan" ~budget:8.0
    (words_per (fun () -> drain op))

let test_compile_float_words () =
  let cat = pull_catalog () in
  let info = Storage.Catalog.table cat "A" in
  let rows = Array.of_list (Storage.Heap_file.to_list info.tb_heap) in
  let f =
    Expr.compile_float info.tb_schema
      Expr.(cfloat 0.5 * col ~relation:"A" "score")
  in
  let run f () =
    Array.iter (fun tu -> ignore (Sys.opaque_identity (f tu))) rows;
    Array.length rows
  in
  (* The loop's own words, measured with a closure that allocates nothing
     (it returns a static float). *)
  let harness, _ = measure (run (fun _ -> 0.5)) in
  let words, calls = measure (run f) in
  (* 4 words per call before: the product's Value.Float cell and its box;
     the float path allocates only the result box *)
  check_budget "compile_float" ~budget:2.0
    ((words -. harness) /. float_of_int calls)

(* One dashboard join execution, HRJN(B[ix↓],A[ix↓]) under a top-10, per
   input tuple it pulls. *)
let test_hrjn_words () =
  let cat = pull_catalog () in
  let input t =
    let info = Storage.Catalog.table cat t in
    let schema = info.tb_schema in
    {
      Rank_join.stream =
        Operator.with_score
          (Expr.compile_float schema Expr.(cfloat 0.5 * col ~relation:t "score"))
          (Scan.index_desc cat (score_index cat t));
      key = Expr.compile schema (Expr.col ~relation:t "key");
    }
  in
  let stream, stats =
    Rank_join.hrjn ~combine:( +. ) ~inputs:[ input "B"; input "A" ] ()
  in
  let top = Basic_ops.limit 10 (Operator.scored_to_plain stream) in
  let run () =
    Alcotest.(check int) "ten rows" 10 (drain top);
    Exec_stats.total_in stats
  in
  (* 79.3 words per pulled tuple before, queued results included *)
  check_budget "2-input HRJN" ~budget:32.0 (words_per run)

let suites =
  [
    ( "exec.scan",
      [
        Alcotest.test_case "heap roundtrip" `Quick test_heap_scan_roundtrip;
        Alcotest.test_case "restartable" `Quick test_scan_restartable;
        Alcotest.test_case "index desc sorted" `Quick test_index_scan_sorted;
      ] );
    ( "exec.pull_words",
      [
        Alcotest.test_case "heap scan" `Quick test_heap_scan_words;
        Alcotest.test_case "unclustered index scan" `Quick test_index_scan_words;
        Alcotest.test_case "compile_float over floats" `Quick
          test_compile_float_words;
        Alcotest.test_case "2-input HRJN execution" `Quick test_hrjn_words;
      ] );
    ( "exec.basic_ops",
      [
        Alcotest.test_case "filter" `Quick test_filter;
        Alcotest.test_case "project" `Quick test_project;
        Alcotest.test_case "project exprs" `Quick test_project_exprs;
        Alcotest.test_case "limit" `Quick test_limit;
      ] );
    ( "exec.sort",
      [
        Alcotest.test_case "in-memory" `Quick test_sort_in_memory;
        Alcotest.test_case "spills" `Quick test_sort_spills_and_charges_io;
        QCheck_alcotest.to_alcotest prop_sort_is_permutation_and_ordered;
      ] );
    ( "exec.join",
      [
        Alcotest.test_case "agree with oracle" `Quick test_joins_agree_with_oracle;
        Alcotest.test_case "residual predicate" `Quick test_join_with_residual;
        QCheck_alcotest.to_alcotest prop_joins_agree;
      ] );
    ( "exec.top_n",
      [
        Alcotest.test_case "matches sort" `Quick test_top_n_matches_sort;
        Alcotest.test_case "drops NaN scores" `Quick test_top_n_drops_nan;
        Alcotest.test_case "deterministic ties" `Quick test_top_n_tie_determinism;
        Alcotest.test_case "reports stats" `Quick test_top_n_reports_stats;
      ] );
  ]
