(* Small-surface unit tests for APIs not exercised directly elsewhere:
   operator helpers, value printing, math corners, schema/relation edges. *)

open Relalg

let test_value_pp () =
  List.iter
    (fun (v, expected) -> Alcotest.(check string) expected expected (Value.to_string v))
    [
      (Value.Null, "NULL");
      (Value.Int 42, "42");
      (Value.Float 2.5, "2.5");
      (Value.Str "hi", "\"hi\"");
      (Value.Bool false, "false");
    ]

let test_value_dtype () =
  Alcotest.(check (option string)) "int" (Some "int")
    (Option.map Value.dtype_name (Value.dtype_of (Value.Int 1)));
  Alcotest.(check bool) "null has none" true (Option.is_none (Value.dtype_of Value.Null))

let test_log_binomial () =
  Test_util.check_floats_close ~eps:1e-9 "C(5,2)" (log 10.0)
    (Rkutil.Mathx.log_binomial 5 2);
  Alcotest.(check (float 0.0)) "out of range" neg_infinity
    (Rkutil.Mathx.log_binomial 3 5)

let test_prng_copy_and_pick () =
  let g = Rkutil.Prng.create 5 in
  let h = Rkutil.Prng.copy g in
  Alcotest.(check int64) "copies agree" (Rkutil.Prng.bits64 g) (Rkutil.Prng.bits64 h);
  let a = [| "x" |] in
  Alcotest.(check string) "pick singleton" "x" (Rkutil.Prng.pick g a);
  Alcotest.(check bool) "bool terminates" true
    (let b = Rkutil.Prng.bool g in
     b || not b)

let test_schema_pp_and_nth () =
  let s =
    Schema.of_columns
      [ Schema.column ~relation:"T" "a" Value.Tint; Schema.column "b" Value.Tfloat ]
  in
  Alcotest.(check string) "pp" "(T.a:int, b:float)" (Format.asprintf "%a" Schema.pp s);
  Alcotest.(check string) "nth" "b" (Schema.nth s 1).Schema.name;
  Alcotest.(check bool) "equal to self" true (Schema.equal s s)

let test_relation_project_and_rename () =
  let r = Test_util.scored_relation "T" ~n:5 ~domain:2 in
  let p = Relation.project_columns [ (Some "T", "score"); (Some "T", "id") ] r in
  Alcotest.(check int) "arity" 2 (Schema.arity (Relation.schema p));
  let renamed = Relation.rename "U" r in
  Alcotest.(check bool) "requalified" true
    (Schema.mem (Relation.schema renamed) ~relation:"U" "score");
  Alcotest.(check bool) "pp" true
    (String.length (Format.asprintf "%a" Relation.pp r) > 0)

let test_relation_cross () =
  let a = Test_util.scored_relation "A" ~n:3 ~domain:2 in
  let b = Test_util.scored_relation "B" ~n:4 ~domain:2 in
  Alcotest.(check int) "3x4" 12 (Relation.cardinality (Relation.cross a b))

let test_operator_scored_of_list_validation () =
  let schema = Test_util.scored_schema "T" in
  Alcotest.check_raises "decreasing required"
    (Invalid_argument "Operator.scored_of_list: scores not non-increasing")
    (fun () ->
      ignore
        (Exec.Operator.scored_of_list schema
           [ (Tuple.make [ Value.Int 0; Value.Int 0; Value.Float 0.1 ], 0.1);
             (Tuple.make [ Value.Int 1; Value.Int 0; Value.Float 0.9 ], 0.9) ]))

let test_operator_take_and_counted () =
  let schema = Test_util.scored_schema "T" in
  let tuples =
    List.init 10 (fun i -> Tuple.make [ Value.Int i; Value.Int 0; Value.Float 0.0 ])
  in
  let op = Exec.Operator.of_list schema tuples in
  Alcotest.(check int) "take 3" 3 (List.length (Exec.Operator.take op 3));
  let counted, count = Exec.Operator.counted op in
  ignore (Exec.Operator.take counted 4);
  Alcotest.(check int) "counted 4" 4 (count ())

let test_limit_zero () =
  let schema = Test_util.scored_schema "T" in
  let op =
    Exec.Basic_ops.limit 0
      (Exec.Operator.of_list schema
         [ Tuple.make [ Value.Int 0; Value.Int 0; Value.Float 0.0 ] ])
  in
  Alcotest.(check int) "empty" 0 (List.length (Exec.Operator.to_list op))

let test_expr_division_semantics () =
  let schema = Schema.of_columns [ Schema.column "x" Value.Tint ] in
  (* Integer division yields a float (SQL-ish semantics documented in the
     implementation). *)
  let v = Expr.eval schema (Expr.Div (Expr.cint 7, Expr.cint 2)) (Tuple.make [ Value.Int 0 ]) in
  Test_util.check_floats_close "7/2" 3.5 (Value.to_float v)

let test_interesting_orders_two_relations () =
  (* A 2-relation ranking query has no strict partial combinations, only
     singles + the full ORDER BY. *)
  let q =
    Core.Logical.make
      ~relations:
        [
          Core.Logical.base ~score:(Expr.col ~relation:"A" "s") "A";
          Core.Logical.base ~score:(Expr.col ~relation:"B" "s") "B";
        ]
      ~joins:[ Core.Logical.equijoin ("A", "k") ("B", "k") ]
      ~k:3 ()
  in
  let orders = Core.Interesting_orders.derive q in
  let rank_orders =
    List.filter
      (fun (o : Core.Interesting_orders.interesting_order) ->
        o.Core.Interesting_orders.direction = Core.Interesting_orders.Desc)
      orders
  in
  (* A.s, B.s, A.s + B.s *)
  Alcotest.(check int) "three desc orders" 3 (List.length rank_orders)

let test_histogram_bucket_of () =
  let h = Storage.Histogram.build ~buckets:4 [ 0.0; 1.0; 2.0; 3.0 ] in
  Alcotest.(check (option int)) "first" (Some 0) (Storage.Histogram.bucket_of h 0.0);
  Alcotest.(check (option int)) "last" (Some 3) (Storage.Histogram.bucket_of h 3.0);
  Alcotest.(check (option int)) "outside" None (Storage.Histogram.bucket_of h 9.0);
  Alcotest.(check int) "buckets" 4 (Storage.Histogram.bucket_count h);
  Alcotest.(check bool) "pp" true
    (String.length (Format.asprintf "%a" Storage.Histogram.pp h) > 0)

let test_io_stats_pp_and_diff () =
  let io = Storage.Io_stats.create () in
  Storage.Io_stats.add_page_read io;
  Storage.Io_stats.add_index_probe io;
  let a = Storage.Io_stats.snapshot io in
  Storage.Io_stats.add_page_write io;
  let b = Storage.Io_stats.snapshot io in
  let d = Storage.Io_stats.diff b a in
  Alcotest.(check int) "one write in diff" 1 d.Storage.Io_stats.page_writes;
  Alcotest.(check int) "no reads in diff" 0 d.Storage.Io_stats.page_reads;
  Alcotest.(check int) "total" 1 (Storage.Io_stats.total_io d);
  Alcotest.(check bool) "pp" true
    (String.length (Format.asprintf "%a" Storage.Io_stats.pp d) > 0)

let test_buffer_pool_flush () =
  let io = Storage.Io_stats.create () in
  let pool = Storage.Buffer_pool.create ~frames:4 io in
  let p = Storage.Buffer_pool.alloc_page pool ~capacity:2 in
  ignore (Storage.Page.add p (Tuple.make [ Value.Int 1 ]));
  Storage.Buffer_pool.mark_dirty pool (Storage.Page.id p);
  Storage.Buffer_pool.flush pool;
  let snap = Storage.Io_stats.snapshot io in
  Alcotest.(check bool) "flush wrote" true (snap.Storage.Io_stats.page_writes >= 1);
  (* Second flush writes nothing new. *)
  Storage.Buffer_pool.flush pool;
  let snap2 = Storage.Io_stats.snapshot io in
  Alcotest.(check int) "idempotent" snap.Storage.Io_stats.page_writes
    snap2.Storage.Io_stats.page_writes;
  Alcotest.(check bool) "resident" true (Storage.Buffer_pool.resident pool >= 1)

let test_plan_describe_and_pp () =
  let plan =
    Core.Plan.Top_k
      {
        k = 3;
        input =
          Core.Plan.Sort
            {
              order =
                { Core.Plan.expr = Expr.col ~relation:"A" "score";
                  direction = Core.Interesting_orders.Desc };
              input = Core.Plan.Table_scan { table = "A" };
            };
      }
  in
  Alcotest.(check string) "describe" "Top3(Sort(A))" (Core.Plan.describe plan);
  Alcotest.(check bool) "pipelined false" false (Core.Plan.pipelined plan);
  Alcotest.(check int) "join count" 0 (Core.Plan.join_count plan)

let test_logical_pp () =
  let q =
    Core.Logical.make
      ~relations:[ Core.Logical.base ~score:(Expr.col ~relation:"A" "s") "A" ]
      ~joins:[] ~k:2 ()
  in
  let text = Format.asprintf "%a" Core.Logical.pp q in
  Alcotest.(check bool) "mentions limit" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 7 <= String.length text
      && (String.equal (String.sub text i 7) "LIMIT 2" || contains (i + 1))
    in
    contains 0)

let suites =
  [
    ( "coverage.small_apis",
      [
        Alcotest.test_case "value pp" `Quick test_value_pp;
        Alcotest.test_case "value dtype" `Quick test_value_dtype;
        Alcotest.test_case "log_binomial" `Quick test_log_binomial;
        Alcotest.test_case "prng copy/pick" `Quick test_prng_copy_and_pick;
        Alcotest.test_case "schema pp/nth" `Quick test_schema_pp_and_nth;
        Alcotest.test_case "relation project/rename" `Quick test_relation_project_and_rename;
        Alcotest.test_case "relation cross" `Quick test_relation_cross;
        Alcotest.test_case "scored_of_list validation" `Quick
          test_operator_scored_of_list_validation;
        Alcotest.test_case "take/counted" `Quick test_operator_take_and_counted;
        Alcotest.test_case "limit 0" `Quick test_limit_zero;
        Alcotest.test_case "int division" `Quick test_expr_division_semantics;
        Alcotest.test_case "orders: two relations" `Quick
          test_interesting_orders_two_relations;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_bucket_of;
        Alcotest.test_case "io stats diff/pp" `Quick test_io_stats_pp_and_diff;
        Alcotest.test_case "pool flush" `Quick test_buffer_pool_flush;
        Alcotest.test_case "plan describe" `Quick test_plan_describe_and_pp;
        Alcotest.test_case "logical pp" `Quick test_logical_pp;
      ] );
  ]
