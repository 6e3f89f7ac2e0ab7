(* Tests for interesting-order derivation (Table 1), MEMO pruning, the
   rank-aware DP enumerator (Figures 2-3 behaviour) and end-to-end
   optimizer + executor correctness. *)

open Relalg
open Core

(* Query Q2 of the paper: three relations, joins A.c2=B.c1 and B.c2=C.c2,
   ranking on 0.3*A.c1 + 0.3*B.c1 + 0.3*C.c1. *)
let q2_relations () =
  [
    Logical.base ~score:(Expr.col ~relation:"A" "c1") ~weight:0.3 "A";
    Logical.base ~score:(Expr.col ~relation:"B" "c1") ~weight:0.3 "B";
    Logical.base ~score:(Expr.col ~relation:"C" "c1") ~weight:0.3 "C";
  ]

let q2 () =
  Logical.make ~relations:(q2_relations ())
    ~joins:
      [ Logical.equijoin ("A", "c2") ("B", "c1"); Logical.equijoin ("B", "c2") ("C", "c2") ]
    ~k:5 ()

let find_order orders expr direction =
  List.find_opt
    (fun (o : Interesting_orders.interesting_order) ->
      Expr.equal o.Interesting_orders.expr expr
      && o.Interesting_orders.direction = direction)
    orders

let test_table1_orders () =
  (* The derived set must contain every row of Table 1. *)
  let orders = Interesting_orders.derive (q2 ()) in
  let col t c = Expr.col ~relation:t c in
  let expect expr direction reason label =
    match find_order orders expr direction with
    | None -> Alcotest.failf "missing interesting order %s" label
    | Some o ->
        Alcotest.(check string)
          (label ^ " reason")
          (Interesting_orders.reason_name reason)
          (Interesting_orders.reason_name o.Interesting_orders.reason)
  in
  let open Interesting_orders in
  expect (col "A" "c1") Desc Rank_join "A.c1";
  expect (col "A" "c2") Asc Join "A.c2";
  expect (col "B" "c1") Desc Join_and_rank_join "B.c1 (desc)";
  expect (col "B" "c2") Asc Join "B.c2";
  expect (col "C" "c1") Desc Rank_join "C.c1";
  expect (col "C" "c2") Asc Join "C.c2";
  expect
    (Expr.weighted_sum [ (0.3, col "A" "c1"); (0.3, col "B" "c1") ])
    Desc Rank_join "0.3A.c1+0.3B.c1";
  expect
    (Expr.weighted_sum [ (0.3, col "B" "c1"); (0.3, col "C" "c1") ])
    Desc Rank_join "0.3B.c1+0.3C.c1";
  expect
    (Expr.weighted_sum [ (0.3, col "A" "c1"); (0.3, col "C" "c1") ])
    Desc Rank_join "0.3A.c1+0.3C.c1";
  expect
    (Expr.weighted_sum
       [ (0.3, col "A" "c1"); (0.3, col "B" "c1"); (0.3, col "C" "c1") ])
    Desc Order_by "full ranking expression"

let test_traditional_orders_exclude_scores () =
  let orders = Interesting_orders.derive ~rank_aware:false (q2 ()) in
  let col t c = Expr.col ~relation:t c in
  Alcotest.(check bool) "A.c1 not interesting" true
    (Option.is_none (find_order orders (col "A" "c1") Interesting_orders.Desc));
  (* Join columns and the ORDER BY itself remain. *)
  Alcotest.(check bool) "A.c2 interesting" true
    (Option.is_some (find_order orders (col "A" "c2") Interesting_orders.Asc));
  Alcotest.(check bool) "full order by kept" true
    (Option.is_some
       (find_order orders
          (Expr.weighted_sum
             [ (0.3, col "A" "c1"); (0.3, col "B" "c1"); (0.3, col "C" "c1") ])
          Interesting_orders.Desc))

let test_orders_for_subset () =
  let orders = Interesting_orders.derive (q2 ()) in
  let for_a = Interesting_orders.for_subset orders [ "A" ] in
  List.iter
    (fun (o : Interesting_orders.interesting_order) ->
      Alcotest.(check (list string)) "only A" [ "A" ] o.Interesting_orders.relations)
    for_a;
  let for_ab = Interesting_orders.for_subset orders [ "A"; "B" ] in
  Alcotest.(check bool) "pair order present" true
    (List.length for_ab > List.length for_a)

(* --- Logical query validation --- *)

let test_logical_validation () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Logical.make: duplicate relation A")
    (fun () ->
      ignore
        (Logical.make
           ~relations:[ Logical.base "A"; Logical.base "A" ]
           ~joins:[ Logical.equijoin ("A", "x") ("A", "y") ]
           ()));
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Logical.make: join references unknown relation Z") (fun () ->
      ignore
        (Logical.make ~relations:[ Logical.base "A"; Logical.base "B" ]
           ~joins:[ Logical.equijoin ("Z", "x") ("B", "y") ]
           ()));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Logical.make: disconnected join graph") (fun () ->
      ignore (Logical.make ~relations:[ Logical.base "A"; Logical.base "B" ] ~joins:[] ()))

let test_partial_scoring () =
  let q = q2 () in
  (match Logical.partial_scoring_expr q [ "A"; "C" ] with
  | Some e ->
      Alcotest.(check bool) "A and C" true
        (Expr.equal e
           (Expr.weighted_sum
              [ (0.3, Expr.col ~relation:"A" "c1"); (0.3, Expr.col ~relation:"C" "c1") ]))
  | None -> Alcotest.fail "expected partial score");
  Alcotest.(check bool) "empty subset" true
    (Option.is_none (Logical.partial_scoring_expr q []))

(* --- Catalog fixtures for enumeration/execution tests --- *)

let video_style_catalog ?(n = 300) ?(domain = 30) ?(seed = 9) tables =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + i))
           ~name ~n ~key_domain:domain ()))
    tables;
  cat

let topk_query ?(k = 10) tables =
  let relations =
    List.map
      (fun t -> Logical.base ~score:(Expr.col ~relation:t "score") ~weight:1.0 t)
      tables
  in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        Logical.equijoin (a, "key") (b, "key") :: chain rest
    | _ -> []
  in
  Logical.make ~relations ~joins:(chain tables) ~k ()

let relation_of cat name =
  let info = Storage.Catalog.table cat name in
  Relation.create info.Storage.Catalog.tb_schema
    (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)

let oracle_topk cat tables k =
  let rec joined = function
    | [ t ] -> relation_of cat t
    | a :: (b :: _ as rest) ->
        let right = joined rest in
        Relation.join
          ~on:Expr.(col ~relation:a "key" = col ~relation:b "key")
          (relation_of cat a) right
    | [] -> failwith "empty"
  in
  let all = joined tables in
  let score =
    Expr.weighted_sum (List.map (fun t -> (1.0, Expr.col ~relation:t "score")) tables)
  in
  Relation.top_k ~score ~k all

(* --- MEMO pruning --- *)

let test_memo_same_class_pruning () =
  let cat = video_style_catalog [ "A"; "B" ] in
  let q = topk_query [ "A"; "B" ] in
  let env = Cost_model.default_env ~k_min:10 cat q in
  let memo = Memo.create () in
  let cheap = Memo.subplan_of env (Plan.Table_scan { table = "A" }) in
  let costly =
    Memo.subplan_of env
      (Plan.Filter
         { pred = Expr.(Cmp (Ge, col ~relation:"A" "score", cfloat (-1.0))); input = Plan.Table_scan { table = "A" } })
  in
  Alcotest.(check bool) "cheap added" true
    (Memo.add memo ~first_rows:true ~key:1 cheap);
  Alcotest.(check bool) "costlier same-class pruned" false
    (Memo.add memo ~first_rows:true ~key:1 costly);
  Alcotest.(check int) "one plan kept" 1 (List.length (Memo.plans memo 1))

let test_memo_order_protects () =
  let cat = video_style_catalog [ "A"; "B" ] in
  let q = topk_query [ "A"; "B" ] in
  let env = Cost_model.default_env ~k_min:10 cat q in
  let memo = Memo.create () in
  let plain = Memo.subplan_of env (Plan.Table_scan { table = "A" }) in
  let sorted =
    Memo.subplan_of env
      (Plan.Sort
         {
           order = { Plan.expr = Expr.col ~relation:"A" "score"; direction = Interesting_orders.Desc };
           input = Plan.Table_scan { table = "A" };
         })
  in
  ignore (Memo.add memo ~first_rows:true ~key:1 plain);
  Alcotest.(check bool) "ordered plan survives despite higher cost" true
    (Memo.add memo ~first_rows:true ~key:1 sorted);
  Alcotest.(check int) "two plans" 2 (List.length (Memo.plans memo 1))

let test_memo_pipelining_protects () =
  let cat = video_style_catalog [ "A"; "B" ] in
  let q = topk_query [ "A"; "B" ] in
  let env = Cost_model.default_env ~k_min:10 cat q in
  let order = { Plan.expr = Expr.col ~relation:"A" "score"; direction = Interesting_orders.Desc } in
  let ix =
    match Storage.Catalog.find_index_on_expr cat ~table:"A" (Expr.col ~relation:"A" "score") with
    | Some ix -> ix.Storage.Catalog.ix_name
    | None -> Alcotest.fail "score index missing"
  in
  let pipelined =
    Memo.subplan_of env
      (Plan.Index_scan { table = "A"; index = ix; key = Expr.col ~relation:"A" "score"; desc = true })
  in
  let blocking =
    Memo.subplan_of env (Plan.Sort { order; input = Plan.Table_scan { table = "A" } })
  in
  (* With first-rows optimization the pipelined plan cannot be pruned by the
     blocking one even if the blocking one were cheaper. *)
  let memo = Memo.create () in
  ignore (Memo.add memo ~first_rows:true ~key:1 blocking);
  Alcotest.(check bool) "pipelined survives" true
    (Memo.add memo ~first_rows:true ~key:1 pipelined)

(* --- Enumerator --- *)

let test_rank_aware_keeps_more_plans () =
  (* Figures 2-3: enabling ranking as an interesting property strictly
     increases the number of retained plans. *)
  let cat = video_style_catalog [ "A"; "B"; "C" ] in
  let q = topk_query [ "A"; "B"; "C" ] in
  let env = Cost_model.default_env ~k_min:10 cat q in
  let traditional =
    Enumerator.run ~config:{ Enumerator.rank_aware = false; first_rows = false } env
  in
  let rank_aware =
    Enumerator.run ~config:{ Enumerator.rank_aware = true; first_rows = true } env
  in
  Alcotest.(check bool) "more retained plans" true
    (rank_aware.Enumerator.stats.Enumerator.retained
    > traditional.Enumerator.stats.Enumerator.retained)

let test_enumerator_produces_rank_join_plan () =
  let cat = video_style_catalog ~n:2000 ~domain:200 [ "A"; "B" ] in
  let q = topk_query ~k:5 [ "A"; "B" ] in
  let env = Cost_model.default_env ~k_min:5 cat q in
  let result = Enumerator.run env in
  match result.Enumerator.best with
  | None -> Alcotest.fail "no plan"
  | Some sp ->
      (* With a selective enough join and tiny k the rank-join plan should
         win (Figure 1's right-hand region). *)
      Alcotest.(check bool) "rank join chosen" true (Plan.has_rank_join sp.Memo.plan)

let test_enumerator_memo_entries_connected_only () =
  let cat = video_style_catalog [ "A"; "B"; "C" ] in
  (* Chain A-B-C: subset {A,C} is disconnected; no entry should exist. *)
  let q = topk_query [ "A"; "B"; "C" ] in
  let env = Cost_model.default_env ~k_min:10 cat q in
  let result = Enumerator.run env in
  let mask_ac = Enumerator.relation_mask env [ "A"; "C" ] in
  Alcotest.(check (list reject)) "no AC entry" []
    (List.map (fun _ -> ()) (Memo.plans result.Enumerator.memo mask_ac))

let test_best_plan_not_worse_than_handwritten () =
  let cat = video_style_catalog ~n:1000 ~domain:50 [ "A"; "B" ] in
  let q = topk_query ~k:10 [ "A"; "B" ] in
  let env = Cost_model.default_env ~k_min:10 cat q in
  let result = Enumerator.run env in
  let best = Option.get result.Enumerator.best in
  let best_cost = Memo.decision_cost best in
  (* Hand-written alternatives the optimizer must not lose to. *)
  let cond =
    { Logical.left_table = "A"; left_column = "key"; right_table = "B"; right_column = "key" }
  in
  let score =
    Expr.weighted_sum
      [ (1.0, Expr.col ~relation:"A" "score"); (1.0, Expr.col ~relation:"B" "score") ]
  in
  let alternatives =
    [
      Plan.Top_k
        {
          k = 10;
          input =
            Plan.Sort
              {
                order = { Plan.expr = score; direction = Interesting_orders.Desc };
                input =
                  Plan.Join
                    {
                      algo = Plan.Hash;
                      cond;
                      left = Plan.Table_scan { table = "A" };
                      right = Plan.Table_scan { table = "B" };
                      left_score = None;
                      right_score = None;
                    };
              };
        };
    ]
  in
  List.iter
    (fun alt ->
      let alt_cost = Memo.decision_cost (Memo.subplan_of env alt) in
      Alcotest.(check bool) "optimizer at least as good" true (best_cost <= alt_cost +. 1e-6))
    alternatives

(* --- End-to-end: optimize + execute = oracle --- *)

let check_e2e ?(tables = [ "A"; "B" ]) ?(n = 200) ?(domain = 15) ?(k = 8) ?(seed = 5) () =
  let cat = video_style_catalog ~n ~domain ~seed tables in
  let q = topk_query ~k tables in
  let _, result = Optimizer.run_query cat q in
  let oracle = oracle_topk cat tables k in
  Test_util.check_score_multiset "top-k scores" (List.map snd oracle)
    (List.map snd result.Executor.rows);
  Test_util.check_non_increasing "ordered output" (List.map snd result.Executor.rows)

let test_e2e_two_way () = check_e2e ()

let test_e2e_three_way () = check_e2e ~tables:[ "A"; "B"; "C" ] ~n:120 ~domain:10 ~k:5 ()

let test_e2e_four_way () =
  check_e2e ~tables:[ "A"; "B"; "C"; "D" ] ~n:60 ~domain:6 ~k:4 ()

let test_e2e_k_one () = check_e2e ~k:1 ()

let test_e2e_k_huge () = check_e2e ~k:100000 ~n:60 ~domain:5 ()

let test_e2e_traditional_config_agrees () =
  (* The traditional optimizer must return the same answers, just possibly
     with a different (join-then-sort) plan. *)
  let tables = [ "A"; "B" ] in
  let cat = video_style_catalog ~n:150 ~domain:12 tables in
  let q = topk_query ~k:7 tables in
  let planned, result =
    Optimizer.run_query
      ~config:{ Enumerator.rank_aware = false; first_rows = false }
      cat q
  in
  Alcotest.(check bool) "no rank join in traditional plan" false
    (Plan.has_rank_join planned.Optimizer.plan);
  let oracle = oracle_topk cat tables 7 in
  Test_util.check_score_multiset "same answers" (List.map snd oracle)
    (List.map snd result.Executor.rows)

let test_e2e_with_filter () =
  let cat = video_style_catalog ~n:200 ~domain:10 [ "A"; "B" ] in
  let filter = Expr.(Cmp (Ge, col ~relation:"A" "score", cfloat 0.3)) in
  let q =
    Logical.make
      ~relations:
        [
          Logical.base ~filter ~score:(Expr.col ~relation:"A" "score") "A";
          Logical.base ~score:(Expr.col ~relation:"B" "score") "B";
        ]
      ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
      ~k:6 ()
  in
  let _, result = Optimizer.run_query cat q in
  (* Oracle with the filter applied. *)
  let ra = Relation.filter filter (relation_of cat "A") in
  let joined =
    Relation.join ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") ra
      (relation_of cat "B")
  in
  let score =
    Expr.weighted_sum
      [ (1.0, Expr.col ~relation:"A" "score"); (1.0, Expr.col ~relation:"B" "score") ]
  in
  let oracle = Relation.top_k ~score ~k:6 joined in
  Test_util.check_score_multiset "filtered top-k" (List.map snd oracle)
    (List.map snd result.Executor.rows)

let test_e2e_weighted_scores () =
  let cat = video_style_catalog ~n:150 ~domain:10 [ "A"; "B" ] in
  let q =
    Logical.make
      ~relations:
        [
          Logical.base ~score:(Expr.col ~relation:"A" "score") ~weight:0.2 "A";
          Logical.base ~score:(Expr.col ~relation:"B" "score") ~weight:0.8 "B";
        ]
      ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
      ~k:5 ()
  in
  let _, result = Optimizer.run_query cat q in
  let joined =
    Relation.join
      ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
      (relation_of cat "A") (relation_of cat "B")
  in
  let score =
    Expr.weighted_sum
      [ (0.2, Expr.col ~relation:"A" "score"); (0.8, Expr.col ~relation:"B" "score") ]
  in
  let oracle = Relation.top_k ~score ~k:5 joined in
  Test_util.check_score_multiset "weighted top-k" (List.map snd oracle)
    (List.map snd result.Executor.rows)

let test_e2e_unranked_join () =
  (* A plain join query (no scoring, no k) must also plan and execute. *)
  let cat = video_style_catalog ~n:80 ~domain:8 [ "A"; "B" ] in
  let q =
    Logical.make
      ~relations:[ Logical.base "A"; Logical.base "B" ]
      ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
      ()
  in
  let _, result = Optimizer.run_query cat q in
  let oracle =
    Relation.join
      ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
      (relation_of cat "A") (relation_of cat "B")
  in
  Alcotest.(check int) "cardinality" (Relation.cardinality oracle)
    (List.length result.Executor.rows)

let test_rank_plan_does_less_io_for_small_k () =
  (* The headline behaviour: for small k over a large input, the chosen
     rank-aware plan consumes far fewer input tuples than the join size. *)
  let cat = video_style_catalog ~n:3000 ~domain:300 ~seed:77 [ "A"; "B" ] in
  let q = topk_query ~k:3 [ "A"; "B" ] in
  let planned, result = Optimizer.run_query cat q in
  if Plan.has_rank_join planned.Optimizer.plan then
    List.iter
      (fun rn ->
        Alcotest.(check bool) "early out" true
          ((Exec.Exec_stats.left_depth rn.Executor.stats) < 3000))
      result.Executor.rank_nodes
  else Alcotest.fail "expected a rank-join plan for small k"

let prop_e2e_random_workloads =
  QCheck.Test.make ~name:"optimizer e2e: top-k = oracle (random workloads)"
    ~count:25
    QCheck.(
      triple (int_range 0 9999) (int_range 2 40) (pair (int_range 1 8) (int_range 1 12)))
    (fun (seed, n, (domain, k)) ->
      let tables = [ "A"; "B" ] in
      let cat = video_style_catalog ~n ~domain ~seed tables in
      let q = topk_query ~k tables in
      let _, result = Optimizer.run_query cat q in
      let oracle = oracle_topk cat tables k in
      let e = Test_util.score_multiset (List.map snd oracle) in
      let a = Test_util.score_multiset (List.map snd result.Executor.rows) in
      List.length e = List.length a
      && List.for_all2 (fun x y -> Test_util.floats_close ~eps:1e-7 x y) e a)

let prop_rank_aware_and_traditional_agree =
  QCheck.Test.make
    ~name:"optimizer: rank-aware and traditional return identical answers"
    ~count:15
    QCheck.(pair (int_range 0 9999) (int_range 2 10))
    (fun (seed, domain) ->
      let tables = [ "A"; "B"; "C" ] in
      let cat = video_style_catalog ~n:50 ~domain ~seed tables in
      let q = topk_query ~k:5 tables in
      let _, r1 = Optimizer.run_query cat q in
      let _, r2 =
        Optimizer.run_query
          ~config:{ Enumerator.rank_aware = false; first_rows = false }
          cat q
      in
      let s1 = Test_util.score_multiset (List.map snd r1.Executor.rows) in
      let s2 = Test_util.score_multiset (List.map snd r2.Executor.rows) in
      List.length s1 = List.length s2
      && List.for_all2 (fun x y -> Test_util.floats_close ~eps:1e-7 x y) s1 s2)

let suites =
  [
    ( "core.interesting_orders",
      [
        Alcotest.test_case "table 1" `Quick test_table1_orders;
        Alcotest.test_case "traditional excludes scores" `Quick
          test_traditional_orders_exclude_scores;
        Alcotest.test_case "subset restriction" `Quick test_orders_for_subset;
      ] );
    ( "core.logical",
      [
        Alcotest.test_case "validation" `Quick test_logical_validation;
        Alcotest.test_case "partial scoring" `Quick test_partial_scoring;
      ] );
    ( "core.memo",
      [
        Alcotest.test_case "same-class pruning" `Quick test_memo_same_class_pruning;
        Alcotest.test_case "order protects" `Quick test_memo_order_protects;
        Alcotest.test_case "pipelining protects" `Quick test_memo_pipelining_protects;
      ] );
    ( "core.enumerator",
      [
        Alcotest.test_case "rank-aware keeps more plans" `Quick
          test_rank_aware_keeps_more_plans;
        Alcotest.test_case "rank-join plan generated" `Quick
          test_enumerator_produces_rank_join_plan;
        Alcotest.test_case "connected subsets only" `Quick
          test_enumerator_memo_entries_connected_only;
        Alcotest.test_case "beats handwritten plans" `Quick
          test_best_plan_not_worse_than_handwritten;
      ] );
    ( "core.optimizer_e2e",
      [
        Alcotest.test_case "two-way" `Quick test_e2e_two_way;
        Alcotest.test_case "three-way" `Quick test_e2e_three_way;
        Alcotest.test_case "four-way" `Slow test_e2e_four_way;
        Alcotest.test_case "k=1" `Quick test_e2e_k_one;
        Alcotest.test_case "k > join size" `Quick test_e2e_k_huge;
        Alcotest.test_case "traditional agrees" `Quick test_e2e_traditional_config_agrees;
        Alcotest.test_case "with filter" `Quick test_e2e_with_filter;
        Alcotest.test_case "weighted scores" `Quick test_e2e_weighted_scores;
        Alcotest.test_case "unranked join" `Quick test_e2e_unranked_join;
        Alcotest.test_case "early out observed" `Quick test_rank_plan_does_less_io_for_small_k;
        QCheck_alcotest.to_alcotest prop_e2e_random_workloads;
        QCheck_alcotest.to_alcotest prop_rank_aware_and_traditional_agree;
      ] );
  ]
