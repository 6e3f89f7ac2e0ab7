(* Tests for unclustered indexes — the piece that makes the paper's
   Figure 1 cost tradeoff reproducible. *)

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
  ]
