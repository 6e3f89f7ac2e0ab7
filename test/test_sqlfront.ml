(* SQL front end tests: lexer, parser, binder and end-to-end Sql.query. *)

open Relalg

let test_lexer_tokens () =
  let tokens =
    Sqlfront.Lexer.tokenize "SELECT a.x, 0.3 FROM t WHERE x <= 5 AND y <> 'hi';"
  in
  let open Sqlfront.Lexer in
  Alcotest.(check int) "token count" 17 (List.length tokens);
  (match tokens with
  | Tkeyword "SELECT" :: Tident "a" :: Tsymbol "." :: Tident "x" :: Tsymbol ","
    :: Tnumber f :: Tkeyword "FROM" :: _ ->
      Alcotest.(check (float 1e-12)) "0.3" 0.3 f
  | _ -> Alcotest.fail "unexpected prefix");
  match List.rev tokens with
  | Teof :: Tstring "hi" :: _ -> ()
  | _ -> Alcotest.fail "unexpected suffix"

let test_lexer_operators () =
  let open Sqlfront.Lexer in
  match tokenize "<= >= <> != < > =" with
  | [ Tsymbol "<="; Tsymbol ">="; Tsymbol "<>"; Tsymbol "<>"; Tsymbol "<";
      Tsymbol ">"; Tsymbol "="; Teof ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_errors () =
  Alcotest.check_raises "bad char" (Sqlfront.Lexer.Lex_error "unexpected character #")
    (fun () -> ignore (Sqlfront.Lexer.tokenize "SELECT #"));
  Alcotest.check_raises "unterminated"
    (Sqlfront.Lexer.Lex_error "unterminated string literal") (fun () ->
      ignore (Sqlfront.Lexer.tokenize "SELECT 'oops"))

let test_parse_simple () =
  let q = Sqlfront.Parser.parse "SELECT * FROM A" in
  Alcotest.(check int) "one item" 1 (List.length q.Sqlfront.Ast.select);
  Alcotest.(check (list string)) "from" [ "A" ] q.Sqlfront.Ast.from;
  Alcotest.(check int) "no where" 0 (List.length q.Sqlfront.Ast.where)

let test_parse_full_query () =
  let q =
    Sqlfront.Parser.parse
      "SELECT A.id AS aid, B.id FROM A, B WHERE A.key = B.key AND A.score >= 0.5 \
       ORDER BY 0.3 * A.score + 0.7 * B.score DESC LIMIT 5"
  in
  Alcotest.(check (list string)) "from" [ "A"; "B" ] q.Sqlfront.Ast.from;
  Alcotest.(check int) "two conjuncts" 2 (List.length q.Sqlfront.Ast.where);
  Alcotest.(check (option int)) "limit" (Some 5) q.Sqlfront.Ast.limit;
  match q.Sqlfront.Ast.order_by with
  | Some (_, Sqlfront.Ast.Desc) -> ()
  | _ -> Alcotest.fail "order by desc expected"

let test_parse_precedence () =
  let q = Sqlfront.Parser.parse "SELECT 1 + 2 * 3 FROM A" in
  match q.Sqlfront.Ast.select with
  | [ Sqlfront.Ast.Item { expr = Sqlfront.Ast.Binop (Sqlfront.Ast.Add, _, Sqlfront.Ast.Binop (Sqlfront.Ast.Mul, _, _)); _ } ] -> ()
  | _ -> Alcotest.fail "precedence"

let test_parse_parens_and_unary () =
  let q = Sqlfront.Parser.parse "SELECT -(A.x + 1) FROM A" in
  match q.Sqlfront.Ast.select with
  | [ Sqlfront.Ast.Item { expr = Sqlfront.Ast.Unary_minus _; _ } ] -> ()
  | _ -> Alcotest.fail "unary minus"

let test_parse_errors () =
  List.iter
    (fun sql ->
      match Sqlfront.Parser.parse_result sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure: %s" sql)
    [
      "FROM A";
      "SELECT FROM A";
      "SELECT * FROM";
      "SELECT * FROM A WHERE";
      "SELECT * FROM A LIMIT x";
      "SELECT * FROM A extra";
      "SELECT * FROM A ORDER x";
    ]

(* --- binder / end-to-end --- *)

let setup () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (i + 50))
           ~name ~n:150 ~key_domain:12 ()))
    [ "A"; "B" ];
  cat

let test_bind_splits_preds () =
  let cat = setup () in
  let ast =
    Sqlfront.Parser.parse
      "SELECT * FROM A, B WHERE A.key = B.key AND A.score >= 0.2"
  in
  let b = Sqlfront.Binder.bind cat ast in
  Alcotest.(check int) "one join" 1
    (List.length b.Sqlfront.Binder.logical.Core.Logical.joins);
  let a = Core.Logical.find_relation b.Sqlfront.Binder.logical "A" in
  Alcotest.(check bool) "A has filter" true (Option.is_some a.Core.Logical.filter);
  let bb = Core.Logical.find_relation b.Sqlfront.Binder.logical "B" in
  Alcotest.(check bool) "B has no filter" true (Option.is_none bb.Core.Logical.filter)

let test_bind_ranking_slices () =
  let cat = setup () in
  let ast =
    Sqlfront.Parser.parse
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY 0.3*A.score + 0.7*B.score DESC LIMIT 4"
  in
  let b = Sqlfront.Binder.bind cat ast in
  let q = b.Sqlfront.Binder.logical in
  Alcotest.(check (option int)) "k" (Some 4) q.Core.Logical.k;
  let a = Core.Logical.find_relation q "A" in
  (match a.Core.Logical.score with
  | Some s ->
      Alcotest.(check bool) "A slice = 0.3*A.score" true
        (Expr.equal s (Expr.Mul (Expr.cfloat 0.3, Expr.col ~relation:"A" "score")))
  | None -> Alcotest.fail "A unranked");
  match Core.Logical.scoring_expr q with
  | Some full ->
      Alcotest.(check bool) "full ranking reassembles" true
        (Expr.equal full
           (Expr.weighted_sum
              [ (0.3, Expr.col ~relation:"A" "score"); (0.7, Expr.col ~relation:"B" "score") ]))
  | None -> Alcotest.fail "no scoring expr"

let test_bind_errors () =
  let cat = setup () in
  List.iter
    (fun sql ->
      let ast = Sqlfront.Parser.parse sql in
      match Sqlfront.Binder.bind_result cat ast with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected bind failure: %s" sql)
    [
      "SELECT * FROM Zoo";
      "SELECT * FROM A, B WHERE A.key = B.key AND A.nope = 1";
      "SELECT key FROM A, B WHERE A.key = B.key" (* ambiguous column *);
      "SELECT * FROM A, B" (* disconnected join graph *);
      "SELECT * FROM A, B WHERE A.score < B.score" (* cross-relation non-equi *);
    ]

(* A column name owned by several FROM tables must raise a clear
   "ambiguous" error naming the candidate qualifications — in the select
   list, WHERE and ORDER BY alike — and qualifying the reference must make
   the same query bind and run. *)
let test_ambiguous_column_error_and_escape () =
  let cat = setup () in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sql ->
      let ast = Sqlfront.Parser.parse sql in
      match Sqlfront.Binder.bind_result cat ast with
      | Ok _ -> Alcotest.failf "expected ambiguity error: %s" sql
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "says ambiguous: %s" msg)
            true (contains msg "ambiguous");
          Alcotest.(check bool)
            (Printf.sprintf "names candidates: %s" msg)
            true
            (contains msg "A." && contains msg "B."))
    [
      "SELECT score FROM A, B WHERE A.key = B.key";
      "SELECT * FROM A, B WHERE A.key = B.key AND score > 0.5";
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY score DESC LIMIT 3";
    ];
  (* The qualified-name escape hatch binds and executes. *)
  match
    Sqlfront.Sql.query cat
      "SELECT A.score FROM A, B WHERE A.key = B.key ORDER BY A.score + B.score DESC LIMIT 3"
  with
  | Error e -> Alcotest.failf "qualified query failed: %s" e
  | Ok ans -> Alcotest.(check int) "3 rows" 3 (List.length ans.Sqlfront.Sql.rows)

let test_asc_order_by_post_sorts () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY A.score + B.score ASC LIMIT 5"
  with
  | Error e -> Alcotest.failf "asc query failed: %s" e
  | Ok ans ->
      Alcotest.(check int) "5 rows" 5 (List.length ans.Sqlfront.Sql.rows);
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "ascending" true (non_decreasing ans.Sqlfront.Sql.scores)

let test_nonlinear_order_by_post_sorts () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY A.score * B.score DESC LIMIT 4"
  with
  | Error e -> Alcotest.failf "non-linear query failed: %s" e
  | Ok ans ->
      Alcotest.(check int) "4 rows" 4 (List.length ans.Sqlfront.Sql.rows);
      Test_util.check_non_increasing "descending" ans.Sqlfront.Sql.scores;
      (* No rank-join should appear: the plan is a plain join. *)
      Alcotest.(check bool) "no rank join" false
        (Core.Plan.has_rank_join ans.Sqlfront.Sql.planned.Core.Optimizer.plan)

let test_bind_unranked_relation_allowed () =
  let cat = setup () in
  let ast =
    Sqlfront.Parser.parse
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY A.score DESC LIMIT 3"
  in
  match Sqlfront.Binder.bind_result cat ast with
  | Ok b ->
      let bb = Core.Logical.find_relation b.Sqlfront.Binder.logical "B" in
      Alcotest.(check bool) "B unranked" true (Option.is_none bb.Core.Logical.score)
  | Error e -> Alcotest.failf "unexpected bind error: %s" e

let test_sql_query_end_to_end () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat
      "SELECT A.id, B.id FROM A, B WHERE A.key = B.key \
       ORDER BY A.score + B.score DESC LIMIT 6"
  with
  | Error e -> Alcotest.failf "query failed: %s" e
  | Ok ans ->
      Alcotest.(check (list string)) "columns" [ "id"; "id" ] ans.Sqlfront.Sql.columns;
      Alcotest.(check int) "rows" 6 (List.length ans.Sqlfront.Sql.rows);
      Test_util.check_non_increasing "scores ordered" ans.Sqlfront.Sql.scores;
      (* Oracle. *)
      let rel name =
        let info = Storage.Catalog.table cat name in
        Relation.create info.Storage.Catalog.tb_schema
          (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)
      in
      let joined =
        Relation.join
          ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
          (rel "A") (rel "B")
      in
      let score =
        Expr.(col ~relation:"A" "score" + col ~relation:"B" "score")
      in
      let oracle = Relation.top_k ~score ~k:6 joined in
      Test_util.check_score_multiset "matches oracle" (List.map snd oracle)
        ans.Sqlfront.Sql.scores

let test_sql_star_and_filter () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat
      "SELECT * FROM A, B WHERE A.key = B.key AND B.score < 0.4 \
       ORDER BY A.score + B.score DESC LIMIT 3"
  with
  | Error e -> Alcotest.failf "query failed: %s" e
  | Ok ans ->
      Alcotest.(check int) "six columns" 6 (List.length ans.Sqlfront.Sql.columns);
      Alcotest.(check bool) "at most 3 rows" true (List.length ans.Sqlfront.Sql.rows <= 3)

let test_sql_unranked_with_limit () =
  let cat = setup () in
  match Sqlfront.Sql.query cat "SELECT * FROM A LIMIT 7" with
  | Error e -> Alcotest.failf "query failed: %s" e
  | Ok ans ->
      Alcotest.(check int) "7 rows" 7 (List.length ans.Sqlfront.Sql.rows);
      Alcotest.(check int) "no scores" 0 (List.length ans.Sqlfront.Sql.scores)

let test_sql_single_table_topk () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat "SELECT id FROM A ORDER BY A.score DESC LIMIT 5"
  with
  | Error e -> Alcotest.failf "query failed: %s" e
  | Ok ans ->
      Alcotest.(check int) "5 rows" 5 (List.length ans.Sqlfront.Sql.rows);
      Test_util.check_non_increasing "ordered" ans.Sqlfront.Sql.scores

let test_sql_explain () =
  let cat = setup () in
  match
    Sqlfront.Sql.explain cat
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY A.score + B.score DESC LIMIT 5"
  with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok text ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions a plan" true
        (String.length text > 0 && (contains text "HRJN" || contains text "Sort"))

(* One prepared binary rank join polls the same way whichever path runs
   it: an EXECUTE (cursor open, fetch k, close) reads exactly the tuples a
   QUERY (Optimizer.execute) reads pulling as many rows from the plan. The
   cursor pulls one row past the k-th to close its tie group, so the QUERY
   it matches is the same plan at k + 1. Dashboard data: 5 000 rows per
   table, key domain 200; the dashboard join's weights, and skewed ones
   (where a rule steered by predicted depths polls differently from
   round-robin). *)
let test_execute_reads_as_query () =
  let cat = Storage.Catalog.create ~pool_frames:512 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (101 + i))
           ~name ~n:5000 ~key_domain:200 ()))
    [ "A"; "B" ];
  let io = Storage.Catalog.io cat in
  let tuples_read f =
    let before = Storage.Io_stats.snapshot io in
    f ();
    (Storage.Io_stats.diff (Storage.Io_stats.snapshot io) before)
      .Storage.Io_stats.tuples_read
  in
  let k = 10 in
  List.iter
    (fun (wa, wb) ->
      let prepared =
        match
          Result.bind
            (Sqlfront.Sql.template_of_sql
               (Printf.sprintf
                  "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY \
                   %g*A.score + %g*B.score DESC LIMIT ?"
                  wa wb))
            (fun tpl ->
              Result.bind
                (Sqlfront.Sql.instantiate tpl ~k ())
                (Sqlfront.Sql.prepare_ast cat))
        with
        | Ok p -> p
        | Error e -> Alcotest.failf "prepare failed: %s" e
      in
      (match prepared.Sqlfront.Sql.planned.Core.Optimizer.plan with
      | Core.Plan.Top_k { input = Core.Plan.Rank_join { inputs = [ _; _ ]; _ }; _ } -> ()
      | p -> Alcotest.failf "expected a binary rank join, got %s" (Core.Plan.describe p));
      let execute =
        tuples_read (fun () ->
            let cur = Sqlfront.Sql.open_cursor cat prepared in
            Alcotest.(check int) "k rows fetched" k
              (List.length (fst (Sqlfront.Sql.cursor_fetch cur k)));
            Sqlfront.Sql.cursor_close cur)
      in
      let query =
        tuples_read (fun () ->
            ignore
              (Core.Optimizer.execute cat
                 (Sqlfront.Sql.rebind_k prepared (k + 1)).Sqlfront.Sql.planned))
      in
      Alcotest.(check int)
        (Printf.sprintf "weights %g/%g: EXECUTE reads what QUERY reads" wa wb)
        query execute)
    [ (0.5, 0.5); (0.8, 0.2) ]

let suites =
  [
    ( "sqlfront.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "operators" `Quick test_lexer_operators;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
      ] );
    ( "sqlfront.parser",
      [
        Alcotest.test_case "simple" `Quick test_parse_simple;
        Alcotest.test_case "full query" `Quick test_parse_full_query;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "parens/unary" `Quick test_parse_parens_and_unary;
        Alcotest.test_case "errors" `Quick test_parse_errors;
      ] );
    ( "sqlfront.binder",
      [
        Alcotest.test_case "splits predicates" `Quick test_bind_splits_preds;
        Alcotest.test_case "ranking slices" `Quick test_bind_ranking_slices;
        Alcotest.test_case "errors" `Quick test_bind_errors;
        Alcotest.test_case "ambiguous column" `Quick
          test_ambiguous_column_error_and_escape;
        Alcotest.test_case "asc post-sort" `Quick test_asc_order_by_post_sorts;
        Alcotest.test_case "non-linear post-sort" `Quick test_nonlinear_order_by_post_sorts;
        Alcotest.test_case "unranked relation ok" `Quick test_bind_unranked_relation_allowed;
      ] );
    ( "sqlfront.sql",
      [
        Alcotest.test_case "end to end" `Quick test_sql_query_end_to_end;
        Alcotest.test_case "star + filter" `Quick test_sql_star_and_filter;
        Alcotest.test_case "unranked limit" `Quick test_sql_unranked_with_limit;
        Alcotest.test_case "single table top-k" `Quick test_sql_single_table_topk;
        Alcotest.test_case "explain" `Quick test_sql_explain;
        Alcotest.test_case "EXECUTE reads as QUERY" `Quick test_execute_reads_as_query;
      ] );
  ]

(* --- GROUP BY / aggregates --- *)

let test_parse_aggregates () =
  let q =
    Sqlfront.Parser.parse
      "SELECT A.key, COUNT(*), AVG(A.score) AS mean FROM A GROUP BY A.key"
  in
  Alcotest.(check int) "three items" 3 (List.length q.Sqlfront.Ast.select);
  Alcotest.(check int) "one group col" 1 (List.length q.Sqlfront.Ast.group_by);
  match q.Sqlfront.Ast.select with
  | [ Sqlfront.Ast.Item _;
      Sqlfront.Ast.Aggregate { fn = Sqlfront.Ast.Count; arg = None; _ };
      Sqlfront.Ast.Aggregate { fn = Sqlfront.Ast.Avg; arg = Some _; alias = Some "mean" } ] ->
      ()
  | _ -> Alcotest.fail "unexpected select shape"

let test_group_by_end_to_end () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat
      "SELECT A.key, COUNT(*) AS n, SUM(A.score) AS total FROM A GROUP BY A.key"
  with
  | Error e -> Alcotest.failf "group by failed: %s" e
  | Ok ans ->
      Alcotest.(check (list string)) "columns" [ "key"; "n"; "total" ]
        ans.Sqlfront.Sql.columns;
      (* 12 key values over 150 rows: all groups present, counts sum to 150. *)
      Alcotest.(check int) "12 groups" 12 (List.length ans.Sqlfront.Sql.rows);
      let total_count =
        List.fold_left
          (fun acc row -> acc + Value.to_int (Tuple.get row 1))
          0 ans.Sqlfront.Sql.rows
      in
      Alcotest.(check int) "counts sum to n" 150 total_count

let test_group_by_join () =
  let cat = setup () in
  match
    Sqlfront.Sql.query cat
      "SELECT A.key, COUNT(*) FROM A, B WHERE A.key = B.key GROUP BY A.key"
  with
  | Error e -> Alcotest.failf "grouped join failed: %s" e
  | Ok ans ->
      Alcotest.(check bool) "some groups" true (List.length ans.Sqlfront.Sql.rows > 0)

let test_global_aggregate () =
  let cat = setup () in
  match Sqlfront.Sql.query cat "SELECT COUNT(*) AS n, MAX(A.score) FROM A" with
  | Error e -> Alcotest.failf "global agg failed: %s" e
  | Ok ans -> (
      match ans.Sqlfront.Sql.rows with
      | [ row ] ->
          Alcotest.(check int) "count" 150 (Value.to_int (Tuple.get row 0));
          Alcotest.(check bool) "max in range" true
            (Value.to_float (Tuple.get row 1) <= 1.0)
      | _ -> Alcotest.fail "expected one row")

let test_group_by_validation () =
  let cat = setup () in
  List.iter
    (fun sql ->
      match Sqlfront.Sql.query cat sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected failure: %s" sql)
    [
      "SELECT A.score, COUNT(*) FROM A GROUP BY A.key" (* non-grouped item *);
      "SELECT * FROM A GROUP BY A.key" (* star with group by *);
      "SELECT A.key, COUNT(*) FROM A GROUP BY A.key ORDER BY A.key DESC LIMIT 2"
      (* order by with group by *);
      "SELECT SUM(*) FROM A" (* sum needs an argument *);
    ]

let group_by_suite =
  ( "sqlfront.group_by",
    [
      Alcotest.test_case "parse aggregates" `Quick test_parse_aggregates;
      Alcotest.test_case "group by e2e" `Quick test_group_by_end_to_end;
      Alcotest.test_case "grouped join" `Quick test_group_by_join;
      Alcotest.test_case "global aggregate" `Quick test_global_aggregate;
      Alcotest.test_case "validation" `Quick test_group_by_validation;
    ] )

(* --- the paper's Q1 (WITH / rank() OVER) form --- *)

let q1_catalog () =
  (* Relations shaped like the paper's Q1: A(c1), B(c1, c2), C(c2), with
     integer-valued join attributes so the equi-joins actually match. *)
  let cat = Storage.Catalog.create () in
  let prng = Rkutil.Prng.create 77 in
  let mk cols n =
    let schema = Schema.of_columns (List.map (fun c -> Schema.column c Value.Tfloat) cols) in
    let tuples =
      List.init n (fun _ ->
          Array.of_list
            (List.map (fun _ -> Value.Float (float_of_int (Rkutil.Prng.int prng 20))) cols))
    in
    (schema, tuples)
  in
  let sa, ta = mk [ "c1" ] 80 in
  ignore (Storage.Catalog.create_table cat "A" sa ta);
  let sb, tb = mk [ "c1"; "c2" ] 80 in
  ignore (Storage.Catalog.create_table cat "B" sb tb);
  let sc, tc = mk [ "c2" ] 80 in
  ignore (Storage.Catalog.create_table cat "C" sc tc);
  cat

let q1_text =
  "WITH RankedABC AS ( \
     SELECT A.c1 AS x, B.c2 AS y, \
            rank() OVER (ORDER BY 0.3*A.c1 + 0.7*B.c2) AS rank \
     FROM A, B, C \
     WHERE A.c1 = B.c1 AND B.c2 = C.c2) \
   SELECT x, y, rank FROM RankedABC WHERE rank <= 5"

let test_q1_parses_and_desugars () =
  let q = Sqlfront.Parser.parse q1_text in
  Alcotest.(check (option int)) "limit 5" (Some 5) q.Sqlfront.Ast.limit;
  Alcotest.(check (list string)) "from" [ "A"; "B"; "C" ] q.Sqlfront.Ast.from;
  Alcotest.(check int) "three outputs" 3 (List.length q.Sqlfront.Ast.select);
  match List.rev q.Sqlfront.Ast.select with
  | Sqlfront.Ast.Rank_of_row { alias = "rank" } :: _ -> ()
  | _ -> Alcotest.fail "rank output expected"

let test_q1_executes () =
  let cat = q1_catalog () in
  match Sqlfront.Sql.query cat q1_text with
  | Error e -> Alcotest.failf "Q1 failed: %s" e
  | Ok ans ->
      Alcotest.(check (list string)) "columns" [ "x"; "y"; "rank" ]
        ans.Sqlfront.Sql.columns;
      Alcotest.(check bool) "at most 5 rows" true (List.length ans.Sqlfront.Sql.rows <= 5);
      Test_util.check_non_increasing "ranked" ans.Sqlfront.Sql.scores;
      (* rank column is 1..n *)
      List.iteri
        (fun i row ->
          Alcotest.(check int) "rank value" (i + 1) (Value.to_int (Tuple.get row 2)))
        ans.Sqlfront.Sql.rows;
      (* Oracle comparison on combined scores. *)
      let rel name =
        let info = Storage.Catalog.table cat name in
        Relation.create info.Storage.Catalog.tb_schema
          (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)
      in
      let joined =
        Relation.join
          ~on:Expr.(col ~relation:"B" "c2" = col ~relation:"C" "c2")
          (Relation.join
             ~on:Expr.(col ~relation:"A" "c1" = col ~relation:"B" "c1")
             (rel "A") (rel "B"))
          (rel "C")
      in
      let score =
        Expr.weighted_sum
          [ (0.3, Expr.col ~relation:"A" "c1"); (0.7, Expr.col ~relation:"B" "c2") ]
      in
      let oracle = Relation.top_k ~score ~k:5 joined in
      Test_util.check_score_multiset "Q1 = oracle" (List.map snd oracle)
        ans.Sqlfront.Sql.scores

let test_with_form_errors () =
  List.iter
    (fun sql ->
      match Sqlfront.Parser.parse_result sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure: %s" sql)
    [
      (* no rank item in the CTE *)
      "WITH R AS (SELECT A.c1 AS x FROM A) SELECT x FROM R WHERE rank <= 5";
      (* outer FROM must be the CTE *)
      "WITH R AS (SELECT A.c1 AS x, rank() OVER (ORDER BY A.c1) AS r FROM A) \
       SELECT x FROM Other WHERE r <= 5";
      (* outer predicate must bound the rank *)
      "WITH R AS (SELECT A.c1 AS x, rank() OVER (ORDER BY A.c1) AS r FROM A) \
       SELECT x FROM R WHERE x <= 5";
      (* unknown output column *)
      "WITH R AS (SELECT A.c1 AS x, rank() OVER (ORDER BY A.c1) AS r FROM A) \
       SELECT nope FROM R WHERE r <= 5";
    ]

let test_with_form_star_output () =
  let cat = q1_catalog () in
  let sql =
    "WITH R AS (SELECT A.c1 AS x, rank() OVER (ORDER BY A.c1) AS r FROM A) \
     SELECT * FROM R WHERE r <= 3"
  in
  match Sqlfront.Sql.query cat sql with
  | Error e -> Alcotest.failf "star output failed: %s" e
  | Ok ans ->
      Alcotest.(check (list string)) "columns" [ "x"; "r" ] ans.Sqlfront.Sql.columns;
      Alcotest.(check int) "3 rows" 3 (List.length ans.Sqlfront.Sql.rows)

let with_form_suite =
  ( "sqlfront.with_rank",
    [
      Alcotest.test_case "Q1 parses" `Quick test_q1_parses_and_desugars;
      Alcotest.test_case "Q1 executes" `Quick test_q1_executes;
      Alcotest.test_case "errors" `Quick test_with_form_errors;
      Alcotest.test_case "star output" `Quick test_with_form_star_output;
    ] )

(* --- DML: INSERT / DELETE --- *)

let test_insert_and_query () =
  let cat = setup () in
  (match Sqlfront.Sql.execute cat "INSERT INTO A VALUES (9999, 3, 0.999), (9998, 3, 0.5)" with
  | Ok (Sqlfront.Sql.Affected 2) -> ()
  | Ok _ -> Alcotest.fail "expected Affected 2"
  | Error e -> Alcotest.failf "insert failed: %s" e);
  match Sqlfront.Sql.execute cat "SELECT id FROM A ORDER BY A.score DESC LIMIT 1" with
  | Ok (Sqlfront.Sql.Rows ans) -> (
      match ans.Sqlfront.Sql.rows with
      | [ row ] -> Alcotest.(check int) "new max wins" 9999 (Value.to_int (Tuple.get row 0))
      | _ -> Alcotest.fail "one row expected")
  | Ok _ -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.failf "select failed: %s" e

let test_insert_type_coercion () =
  let cat = setup () in
  (* id and key are int columns; plain numbers must coerce. *)
  match Sqlfront.Sql.execute cat "INSERT INTO A VALUES (7777, 2+3, 0.25)" with
  | Ok (Sqlfront.Sql.Affected 1) -> (
      match
        Sqlfront.Sql.execute cat "SELECT key FROM A WHERE A.id = 7777"
      with
      | Ok (Sqlfront.Sql.Rows ans) -> (
          match ans.Sqlfront.Sql.rows with
          | [ row ] -> (
              match Tuple.get row 0 with
              | Value.Int 5 -> ()
              | v -> Alcotest.failf "expected Int 5, got %s" (Value.to_string v))
          | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows))
      | _ -> Alcotest.fail "lookup failed")
  | Ok _ -> Alcotest.fail "expected Affected 1"
  | Error e -> Alcotest.failf "insert failed: %s" e

let test_delete_and_recount () =
  let cat = setup () in
  let count () =
    match Sqlfront.Sql.execute cat "SELECT COUNT(*) AS n FROM A" with
    | Ok (Sqlfront.Sql.Rows ans) -> Value.to_int (Tuple.get (List.hd ans.Sqlfront.Sql.rows) 0)
    | _ -> Alcotest.fail "count failed"
  in
  let before = count () in
  (match Sqlfront.Sql.execute cat "DELETE FROM A WHERE A.score < 0.5" with
  | Ok (Sqlfront.Sql.Affected n) ->
      Alcotest.(check bool) "deleted some" true (n > 0);
      Alcotest.(check int) "count drops by n" (before - n) (count ())
  | Ok _ -> Alcotest.fail "expected Affected"
  | Error e -> Alcotest.failf "delete failed: %s" e);
  (* Ranked queries still work against the maintained indexes. *)
  match
    Sqlfront.Sql.execute cat
      "SELECT A.id, B.id FROM A, B WHERE A.key = B.key \
       ORDER BY A.score + B.score DESC LIMIT 3"
  with
  | Ok (Sqlfront.Sql.Rows ans) ->
      Test_util.check_non_increasing "still ranked" ans.Sqlfront.Sql.scores
  | _ -> Alcotest.fail "ranked query after delete failed"

let test_delete_all_and_empty_join () =
  let cat = setup () in
  (match Sqlfront.Sql.execute cat "DELETE FROM A" with
  | Ok (Sqlfront.Sql.Affected 150) -> ()
  | Ok (Sqlfront.Sql.Affected n) -> Alcotest.failf "expected 150, got %d" n
  | _ -> Alcotest.fail "delete all failed");
  match
    Sqlfront.Sql.execute cat
      "SELECT * FROM A, B WHERE A.key = B.key ORDER BY A.score + B.score DESC LIMIT 5"
  with
  | Ok (Sqlfront.Sql.Rows ans) ->
      Alcotest.(check int) "empty join" 0 (List.length ans.Sqlfront.Sql.rows)
  | _ -> Alcotest.fail "query over empty table failed"

let test_dml_errors () =
  let cat = setup () in
  List.iter
    (fun sql ->
      match Sqlfront.Sql.execute cat sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected failure: %s" sql)
    [
      "INSERT INTO Nowhere VALUES (1)";
      "INSERT INTO A VALUES (1, 2)" (* arity *);
      "INSERT INTO A VALUES (A.id, 2, 3)" (* non-constant *);
      "DELETE FROM Nowhere";
      "DELETE FROM A WHERE B.score < 1" (* foreign table in predicate *);
    ]

let test_deleted_rows_absent_from_index_scans () =
  let cat = setup () in
  (* Delete the top scorer, then the ranked scan must not return it. *)
  (match Sqlfront.Sql.execute cat "SELECT id, score FROM A ORDER BY A.score DESC LIMIT 1" with
  | Ok (Sqlfront.Sql.Rows ans) -> (
      match ans.Sqlfront.Sql.rows with
      | [ row ] -> (
          let top_id = Value.to_int (Tuple.get row 0) in
          match
            Sqlfront.Sql.execute cat
              (Printf.sprintf "DELETE FROM A WHERE A.id = %d" top_id)
          with
          | Ok (Sqlfront.Sql.Affected 1) -> (
              match
                Sqlfront.Sql.execute cat
                  "SELECT id FROM A ORDER BY A.score DESC LIMIT 1"
              with
              | Ok (Sqlfront.Sql.Rows ans2) ->
                  let new_top = Value.to_int (Tuple.get (List.hd ans2.Sqlfront.Sql.rows) 0) in
                  Alcotest.(check bool) "top changed" true (new_top <> top_id)
              | _ -> Alcotest.fail "post-delete scan failed")
          | _ -> Alcotest.fail "targeted delete failed")
      | _ -> Alcotest.fail "expected one row")
  | _ -> Alcotest.fail "initial top query failed")

let dml_suite =
  ( "sqlfront.dml",
    [
      Alcotest.test_case "insert + query" `Quick test_insert_and_query;
      Alcotest.test_case "insert coercion" `Quick test_insert_type_coercion;
      Alcotest.test_case "delete + recount" `Quick test_delete_and_recount;
      Alcotest.test_case "delete all" `Quick test_delete_all_and_empty_join;
      Alcotest.test_case "errors" `Quick test_dml_errors;
      Alcotest.test_case "index scans skip deleted" `Quick
        test_deleted_rows_absent_from_index_scans;
    ] )

let test_update_statement () =
  let cat = setup () in
  (* Boost every low score; ranked scans must reflect it via the indexes. *)
  (match
     Sqlfront.Sql.execute cat "UPDATE A SET score = A.score + 1 WHERE A.score < 0.1"
   with
  | Ok (Sqlfront.Sql.Affected n) -> Alcotest.(check bool) "updated some" true (n > 0)
  | Ok _ -> Alcotest.fail "expected Affected"
  | Error e -> Alcotest.failf "update failed: %s" e);
  match Sqlfront.Sql.execute cat "SELECT score FROM A ORDER BY A.score DESC LIMIT 1" with
  | Ok (Sqlfront.Sql.Rows ans) ->
      let top = Value.to_float (Tuple.get (List.hd ans.Sqlfront.Sql.rows) 0) in
      Alcotest.(check bool) "boosted row on top" true (top > 1.0)
  | _ -> Alcotest.fail "post-update scan failed"

let test_update_int_column_and_count () =
  let cat = setup () in
  (match Sqlfront.Sql.execute cat "UPDATE A SET key = 0" with
  | Ok (Sqlfront.Sql.Affected 150) -> ()
  | Ok (Sqlfront.Sql.Affected n) -> Alcotest.failf "expected 150, got %d" n
  | _ -> Alcotest.fail "update all failed");
  match Sqlfront.Sql.execute cat "SELECT COUNT(*) AS n FROM A WHERE A.key = 0" with
  | Ok (Sqlfront.Sql.Rows ans) ->
      Alcotest.(check int) "all keys zero" 150
        (Value.to_int (Tuple.get (List.hd ans.Sqlfront.Sql.rows) 0))
  | _ -> Alcotest.fail "count failed"

let test_update_errors () =
  let cat = setup () in
  List.iter
    (fun sql ->
      match Sqlfront.Sql.execute cat sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected failure: %s" sql)
    [
      "UPDATE Nowhere SET x = 1";
      "UPDATE A SET nope = 1";
      "UPDATE A SET score = B.score" (* foreign column *);
    ]

(* Random DML interleavings agree with a simple list model. *)
let prop_dml_matches_model =
  QCheck.Test.make ~name:"dml: random inserts/deletes match a list model"
    ~count:25
    QCheck.(
      pair (int_range 0 999)
        (list_of_size (QCheck.Gen.int_range 1 25)
           (pair (int_range 0 2) (int_range 0 9))))
    (fun (seed, ops) ->
      let cat = Storage.Catalog.create ~tuples_per_page:4 () in
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create seed)
           ~name:"T" ~n:20 ~key_domain:10 ());
      (* Model: list of (id, key) pairs; scores mirror ids for simplicity. *)
      let model = ref [] in
      let info = Storage.Catalog.table cat "T" in
      Storage.Heap_file.iter
        (fun tu ->
          model :=
            (Value.to_int (Tuple.get tu 0), Value.to_int (Tuple.get tu 1)) :: !model)
        info.Storage.Catalog.tb_heap;
      let next_id = ref 1000 in
      List.iter
        (fun (op, key) ->
          match op with
          | 0 ->
              let id = !next_id in
              incr next_id;
              (match
                 Sqlfront.Sql.execute cat
                   (Printf.sprintf "INSERT INTO T VALUES (%d, %d, 0.5)" id key)
               with
              | Ok _ -> model := (id, key) :: !model
              | Error _ -> ())
          | 1 -> (
              match
                Sqlfront.Sql.execute cat
                  (Printf.sprintf "DELETE FROM T WHERE T.key = %d" key)
              with
              | Ok (Sqlfront.Sql.Affected _) ->
                  model := List.filter (fun (_, k) -> k <> key) !model
              | _ -> ())
          | _ -> (
              match
                Sqlfront.Sql.execute cat
                  (Printf.sprintf "UPDATE T SET key = %d WHERE T.key = %d" (key + 10) key)
              with
              | Ok (Sqlfront.Sql.Affected _) ->
                  model :=
                    List.map
                      (fun (i, k) -> if k = key then (i, key + 10) else (i, k))
                      !model
              | _ -> ()))
        ops;
      let actual =
        List.map
          (fun tu -> (Value.to_int (Tuple.get tu 0), Value.to_int (Tuple.get tu 1)))
          (Storage.Heap_file.to_list (Storage.Catalog.table cat "T").Storage.Catalog.tb_heap)
      in
      List.sort compare actual = List.sort compare !model)

(* --- rank() BETWEEN windows --- *)

let test_parse_rank_window () =
  let q =
    Sqlfront.Parser.parse
      "SELECT * FROM A WHERE A.key >= 3 AND rank() BETWEEN 2 AND 9 ORDER BY \
       A.score DESC"
  in
  Alcotest.(check (option (pair int int)))
    "window" (Some (2, 9)) q.Sqlfront.Ast.rank_between;
  Alcotest.(check int) "residual conjunct survives" 1
    (List.length q.Sqlfront.Ast.where);
  (* The canonical print puts the window first among the WHERE conjuncts
     (plan-cache keys depend on it) and is a re-parse fixed point. *)
  let printed = Format.asprintf "%a" Sqlfront.Ast.pp_query q in
  let q2 = Sqlfront.Parser.parse printed in
  Alcotest.(check (option (pair int int)))
    "window round-trips" (Some (2, 9)) q2.Sqlfront.Ast.rank_between;
  Alcotest.(check int) "conjunct round-trips" 1
    (List.length q2.Sqlfront.Ast.where);
  Alcotest.(check string) "canonical print is a fixed point" printed
    (Format.asprintf "%a" Sqlfront.Ast.pp_query q2)

let test_parse_rank_window_errors () =
  List.iter
    (fun sql ->
      match Sqlfront.Parser.parse_result sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure: %s" sql)
    [
      (* Inverted and 0-based windows are rejected at parse time. *)
      "SELECT * FROM A WHERE rank() BETWEEN 9 AND 2 ORDER BY A.score DESC";
      "SELECT * FROM A WHERE rank() BETWEEN 0 AND 3 ORDER BY A.score DESC";
      "SELECT * FROM A WHERE rank() BETWEEN 1.5 AND 3 ORDER BY A.score DESC";
      "SELECT * FROM A WHERE rank() BETWEEN 1 AND 3 AND rank() BETWEEN 2 \
       AND 4 ORDER BY A.score DESC";
      "SELECT * FROM A WHERE rank() BETWEEN 1 ORDER BY A.score DESC";
    ]

let test_bind_rank_window_errors () =
  let cat = setup () in
  List.iter
    (fun sql ->
      match Sqlfront.Sql.query cat sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected bind failure: %s" sql)
    [
      "SELECT * FROM A, B WHERE A.key = B.key AND rank() BETWEEN 1 AND 5 \
       ORDER BY A.score DESC";
      "SELECT * FROM A WHERE rank() BETWEEN 1 AND 5 ORDER BY A.score ASC";
      "SELECT * FROM A WHERE rank() BETWEEN 1 AND 5";
      "SELECT COUNT(*) AS n FROM A WHERE rank() BETWEEN 1 AND 5 ORDER BY \
       A.score DESC";
    ]

(* The window must be exactly rows lo..hi of the full descending order,
   and a projected rank() must number from lo. *)
let test_sql_rank_window_end_to_end () =
  let cat = setup () in
  let full_ids =
    match
      Sqlfront.Sql.query cat "SELECT id FROM A ORDER BY A.score DESC LIMIT 8"
    with
    | Ok ans ->
        List.map (fun tu -> Value.to_int (Tuple.get tu 0)) ans.Sqlfront.Sql.rows
    | Error e -> Alcotest.failf "full scan failed: %s" e
  in
  match
    Sqlfront.Sql.query cat
      "SELECT rank() AS r, A.id FROM A WHERE rank() BETWEEN 4 AND 8 ORDER BY \
       A.score DESC"
  with
  | Error e -> Alcotest.failf "rank window failed: %s" e
  | Ok ans ->
      Alcotest.(check (list string)) "columns" [ "r"; "id" ]
        ans.Sqlfront.Sql.columns;
      Test_util.check_non_increasing "window ordered" ans.Sqlfront.Sql.scores;
      Alcotest.(check (list int))
        "rank() numbers from lo" [ 4; 5; 6; 7; 8 ]
        (List.map (fun tu -> Value.to_int (Tuple.get tu 0)) ans.Sqlfront.Sql.rows);
      Alcotest.(check (list int))
        "window = slice 4..8 of the full descending order"
        (List.filteri (fun i _ -> i >= 3) full_ids)
        (List.map (fun tu -> Value.to_int (Tuple.get tu 1)) ans.Sqlfront.Sql.rows)

let test_sql_rank_window_residual_filter () =
  let cat = setup () in
  (* The window is computed over the whole table; the residual predicate
     prunes within it, so row counts can only shrink. *)
  match
    Sqlfront.Sql.query cat
      "SELECT A.id, A.key FROM A WHERE rank() BETWEEN 1 AND 20 AND A.key <= \
       5 ORDER BY A.score DESC"
  with
  | Error e -> Alcotest.failf "filtered window failed: %s" e
  | Ok ans ->
      Alcotest.(check bool) "at most the window" true
        (List.length ans.Sqlfront.Sql.rows <= 20);
      List.iter
        (fun tu ->
          Alcotest.(check bool) "filter applied" true
            (Value.to_int (Tuple.get tu 1) <= 5))
        ans.Sqlfront.Sql.rows

(* --- dense_rank() BETWEEN windows --- *)

(* A tiny table with a known tie structure: scores 0.9 0.9 0.8 0.7 0.7
   0.7 0.6 0.5 give dense blocks 1={1,2} 2={3} 3={4,5,6} 4={7} 5={8}. *)
let setup_dense () =
  let cat = Storage.Catalog.create () in
  let schema =
    Schema.of_columns
      [ Schema.column "id" Value.Tint; Schema.column "score" Value.Tfloat ]
  in
  let tuples =
    List.mapi
      (fun i s -> [| Value.Int (i + 1); Value.Float s |])
      [ 0.9; 0.9; 0.8; 0.7; 0.7; 0.7; 0.6; 0.5 ]
  in
  ignore (Storage.Catalog.create_table cat "D" schema tuples);
  ignore
    (Storage.Catalog.create_index cat ~name:"d_score" ~table:"D"
       ~key:(Relalg.Expr.col ~relation:"D" "score")
       ());
  cat

let test_parse_dense_rank_window () =
  let q =
    Sqlfront.Parser.parse
      "SELECT * FROM D WHERE dense_rank() BETWEEN 2 AND 4 ORDER BY D.score \
       DESC"
  in
  Alcotest.(check (option (pair int int)))
    "window" (Some (2, 4)) q.Sqlfront.Ast.rank_between;
  Alcotest.(check bool) "dense flag" true q.Sqlfront.Ast.rank_dense;
  let printed = Format.asprintf "%a" Sqlfront.Ast.pp_query q in
  Alcotest.(check bool) "canonical print keeps DENSE" true
    (let re = "dense_rank() BETWEEN" in
     let n = String.length re in
     let rec scan i =
       i + n <= String.length printed
       && (String.sub printed i n = re || scan (i + 1))
     in
     scan 0);
  let q2 = Sqlfront.Parser.parse printed in
  Alcotest.(check bool) "dense round-trips" true q2.Sqlfront.Ast.rank_dense;
  Alcotest.(check string) "canonical print is a fixed point" printed
    (Format.asprintf "%a" Sqlfront.Ast.pp_query q2)

(* Dense windows keep whole tie blocks and a projected rank() emits the
   dense number, so ties share it. *)
let test_sql_dense_rank_window_end_to_end () =
  let cat = setup_dense () in
  match
    Sqlfront.Sql.query cat
      "SELECT rank() AS r, D.id FROM D WHERE dense_rank() BETWEEN 2 AND 4 \
       ORDER BY D.score DESC"
  with
  | Error e -> Alcotest.failf "dense window failed: %s" e
  | Ok ans ->
      Test_util.check_non_increasing "window ordered" ans.Sqlfront.Sql.scores;
      Alcotest.(check (list int))
        "whole tie blocks 2..4" [ 3; 4; 5; 6; 7 ]
        (List.map
           (fun tu -> Value.to_int (Tuple.get tu 1))
           ans.Sqlfront.Sql.rows);
      Alcotest.(check (list int))
        "rank() emits dense numbers" [ 2; 3; 3; 3; 4 ]
        (List.map
           (fun tu -> Value.to_int (Tuple.get tu 0))
           ans.Sqlfront.Sql.rows)

(* Same window, index dropped: the sort fallback must slice by dense
   block too. A fresh catalog without d_score forces it. *)
let test_sql_dense_rank_window_sort_fallback () =
  let cat = Storage.Catalog.create () in
  let schema =
    Schema.of_columns
      [ Schema.column "id" Value.Tint; Schema.column "score" Value.Tfloat ]
  in
  let tuples =
    List.mapi
      (fun i s -> [| Value.Int (i + 1); Value.Float s |])
      [ 0.9; 0.9; 0.8; 0.7; 0.7; 0.7; 0.6; 0.5 ]
  in
  ignore (Storage.Catalog.create_table cat "D" schema tuples);
  match
    Sqlfront.Sql.query cat
      "SELECT D.id FROM D WHERE dense_rank() BETWEEN 3 AND 3 ORDER BY \
       D.score DESC"
  with
  | Error e -> Alcotest.failf "dense window (no index) failed: %s" e
  | Ok ans ->
      Alcotest.(check (list int))
        "block 3 is the 0.7 tie block" [ 4; 5; 6 ]
        (List.map
           (fun tu -> Value.to_int (Tuple.get tu 0))
           ans.Sqlfront.Sql.rows)

let rank_window_suite =
  ( "sqlfront.rank_window",
    [
      Alcotest.test_case "parse + canonical round-trip" `Quick
        test_parse_rank_window;
      Alcotest.test_case "parse errors" `Quick test_parse_rank_window_errors;
      Alcotest.test_case "bind errors" `Quick test_bind_rank_window_errors;
      Alcotest.test_case "window = slice of full order" `Quick
        test_sql_rank_window_end_to_end;
      Alcotest.test_case "residual filter prunes within window" `Quick
        test_sql_rank_window_residual_filter;
      Alcotest.test_case "dense parse + round-trip" `Quick
        test_parse_dense_rank_window;
      Alcotest.test_case "dense window keeps tie blocks" `Quick
        test_sql_dense_rank_window_end_to_end;
      Alcotest.test_case "dense sort fallback" `Quick
        test_sql_dense_rank_window_sort_fallback;
    ] )

let update_suite =
  ( "sqlfront.update",
    [
      Alcotest.test_case "update statement" `Quick test_update_statement;
      Alcotest.test_case "update int column" `Quick test_update_int_column_and_count;
      Alcotest.test_case "errors" `Quick test_update_errors;
      QCheck_alcotest.to_alcotest prop_dml_matches_model;
    ] )
