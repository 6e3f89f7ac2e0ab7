(* Rank-join operator tests: HRJN and NRJN against the join-then-sort
   oracle, ordering and early-out behaviour, and instrumentation. *)

open Relalg
open Exec

let key_idx = 1 (* (id, key, score) relations from Test_util *)

let score_idx = 2

let scored_stream rel =
  (* Sorted access over an in-memory relation: sort desc by score. *)
  let sorted = Relation.sort_by ~desc:true (Expr.col "score") rel in
  let entries =
    List.map
      (fun tu -> (tu, Value.to_float (Tuple.get tu score_idx)))
      (Relation.tuples sorted)
  in
  Operator.scored_of_list (Relation.schema rel) entries

let rank_input rel =
  {
    Rank_join.stream = scored_stream rel;
    key = (fun tu -> Tuple.get tu key_idx);
  }

let combine = ( +. )

let oracle_topk ra rb k =
  let joined =
    Relation.join ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") ra rb
  in
  let score =
    Expr.(col ~relation:"A" "score" + col ~relation:"B" "score")
  in
  Relation.top_k ~score ~k joined

let make_pair ?(na = 40) ?(nb = 40) ?(domain = 5) ?(seed = 7) () =
  let ra = Test_util.scored_relation "A" ~n:na ~domain ~seed in
  let rb = Test_util.scored_relation "B" ~n:nb ~domain ~seed:(seed + 1) in
  (ra, rb)

let hrjn_results ?polling ra rb k =
  let stream, stats =
    Rank_join.hrjn ?polling ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
  in
  (Operator.scored_take stream k, stats)

let nrjn_results ra rb k =
  let pred = Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") in
  let inner = Operator.of_list (Relation.schema rb) (Relation.tuples rb) in
  let inner_score tu = Value.to_float (Tuple.get tu score_idx) in
  let stream, stats =
    Rank_join.nrjn ~combine ~pred ~outer:(scored_stream ra) ~inner ~inner_score ()
  in
  (Operator.scored_take stream k, stats)

let test_hrjn_matches_oracle () =
  let ra, rb = make_pair () in
  List.iter
    (fun k ->
      let results, _ = hrjn_results ra rb k in
      let oracle = oracle_topk ra rb k in
      Test_util.check_score_multiset
        (Printf.sprintf "hrjn top-%d" k)
        (List.map snd oracle) (List.map snd results);
      Test_util.check_non_increasing "hrjn ordered" (List.map snd results))
    [ 1; 5; 20; 1000 ]

let test_nrjn_matches_oracle () =
  let ra, rb = make_pair () in
  List.iter
    (fun k ->
      let results, _ = nrjn_results ra rb k in
      let oracle = oracle_topk ra rb k in
      Test_util.check_score_multiset
        (Printf.sprintf "nrjn top-%d" k)
        (List.map snd oracle) (List.map snd results);
      Test_util.check_non_increasing "nrjn ordered" (List.map snd results))
    [ 1; 5; 20; 1000 ]

let test_hrjn_adaptive_polling () =
  let ra, rb = make_pair ~na:60 ~nb:20 () in
  let results, _ = hrjn_results ~polling:Rank_join.Adaptive ra rb 10 in
  let oracle = oracle_topk ra rb 10 in
  Test_util.check_score_multiset "adaptive top-10" (List.map snd oracle)
    (List.map snd results)

let test_hrjn_early_out () =
  (* With a selective enough join and small k, HRJN must not exhaust its
     inputs. *)
  let ra, rb = make_pair ~na:300 ~nb:300 ~domain:3 ~seed:17 () in
  let _, stats = hrjn_results ra rb 5 in
  Alcotest.(check bool) "left depth < n" true ((Exec_stats.left_depth stats) < 300);
  Alcotest.(check bool) "right depth < n" true ((Exec_stats.right_depth stats) < 300)

let test_hrjn_emits_all_results_when_k_large () =
  let ra, rb = make_pair ~na:25 ~nb:25 ~domain:4 () in
  let results, _ = hrjn_results ra rb max_int in
  let joined =
    Relation.join ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") ra rb
  in
  Alcotest.(check int) "full output" (Relation.cardinality joined)
    (List.length results)

let test_hrjn_empty_inputs () =
  let empty = Relation.create (Test_util.scored_schema "A") [] in
  let rb = Test_util.scored_relation "B" ~n:10 ~domain:3 in
  let results, _ = hrjn_results empty rb 5 in
  Alcotest.(check int) "no results" 0 (List.length results);
  let results, _ = hrjn_results rb empty 5 in
  Alcotest.(check int) "no results (empty right)" 0 (List.length results)

let test_nrjn_empty_inner () =
  let ra = Test_util.scored_relation "A" ~n:10 ~domain:3 in
  let empty = Relation.create (Test_util.scored_schema "B") [] in
  let results, _ = nrjn_results ra empty 5 in
  Alcotest.(check int) "no results" 0 (List.length results)

(* Exhaustion depth regression (Theorem 2 degenerate case): when one input
   is exhausted empty the join is provably empty, so the bound on the other
   input's depth is O(1) — the operator may poll it at most once before it
   learns the empty side is done. Pre-fix HRJN drained the live side fully
   (depth n) and NRJN scanned the empty inner once per outer tuple. *)
let test_hrjn_empty_input_depth () =
  let empty = Relation.create (Test_util.scored_schema "A") [] in
  let rb = Test_util.scored_relation "B" ~n:200 ~domain:4 ~seed:5 in
  let results, stats = hrjn_results empty rb 5 in
  Alcotest.(check int) "no results" 0 (List.length results);
  Alcotest.(check bool) "empty left: right depth O(1)" true
    (Exec_stats.right_depth stats <= 2);
  let empty_r = Relation.create (Test_util.scored_schema "B") [] in
  let ra = Test_util.scored_relation "A" ~n:200 ~domain:4 ~seed:5 in
  let results, stats = hrjn_results ra empty_r 5 in
  Alcotest.(check int) "no results (empty right)" 0 (List.length results);
  Alcotest.(check bool) "empty right: left depth O(1)" true
    (Exec_stats.left_depth stats <= 2)

let test_nrjn_empty_inner_depth () =
  let ra = Test_util.scored_relation "A" ~n:200 ~domain:4 ~seed:5 in
  let empty = Relation.create (Test_util.scored_schema "B") [] in
  let _, stats = nrjn_results ra empty 5 in
  Alcotest.(check bool) "empty inner: outer depth O(1)" true
    (Exec_stats.left_depth stats <= 1)

let test_hrjn_threshold_safety () =
  (* Every emitted score must be >= every score emitted later (already
     checked) AND no emitted-later join result can beat an earlier one even
     across restarts. Also: emitted results never exceed the total join. *)
  let ra, rb = make_pair ~na:50 ~nb:50 ~domain:2 ~seed:23 () in
  let stream, _ =
    Rank_join.hrjn ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
  in
  let all = Operator.scored_to_list stream in
  let oracle = oracle_topk ra rb max_int in
  Test_util.check_score_multiset "full drain equals oracle"
    (List.map snd oracle) (List.map snd all)

let test_hrjn_restart () =
  let ra, rb = make_pair () in
  let stream, stats =
    Rank_join.hrjn ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
  in
  let first = Operator.scored_take stream 5 in
  let second = Operator.scored_take stream 5 in
  Alcotest.(check bool) "same after restart" true
    (List.equal (fun (_, a) (_, b) -> Float.equal a b) first second);
  Alcotest.(check bool) "stats reset" true ((Exec_stats.emitted stats) <= 5)

let test_hrjn_depths_grow_with_k () =
  let ra, rb = make_pair ~na:200 ~nb:200 ~domain:8 ~seed:31 () in
  let _, s1 = hrjn_results ra rb 1 in
  let _, s2 = hrjn_results ra rb 50 in
  Alcotest.(check bool) "deeper for larger k" true
    ((Exec_stats.left_depth s2) >= (Exec_stats.left_depth s1)
    && (Exec_stats.right_depth s2) >= (Exec_stats.right_depth s1))

let test_hrjn_buffer_tracked () =
  let ra, rb = make_pair ~na:100 ~nb:100 ~domain:2 ~seed:41 () in
  let _, stats = hrjn_results ra rb 10 in
  Alcotest.(check bool) "buffer high-water > 0" true ((Exec_stats.buffer_max stats) > 0)

let test_nrjn_depth_instrumentation () =
  let ra, rb = make_pair ~na:50 ~nb:30 ~domain:3 () in
  let _, stats = nrjn_results ra rb 3 in
  Alcotest.(check bool) "outer depth <= 50" true ((Exec_stats.left_depth stats) <= 50);
  Alcotest.(check int) "inner fully scanned" 30 (Exec_stats.right_depth stats)

let test_weighted_combine () =
  let ra, rb = make_pair () in
  let wcombine a b = (0.3 *. a) +. (0.7 *. b) in
  let stream, _ =
    Rank_join.hrjn ~combine:wcombine ~inputs:[ rank_input ra; rank_input rb ] ()
  in
  let results = Operator.scored_take stream 10 in
  let joined =
    Relation.join ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") ra rb
  in
  let score =
    Expr.weighted_sum
      [ (0.3, Expr.col ~relation:"A" "score"); (0.7, Expr.col ~relation:"B" "score") ]
  in
  let oracle = Relation.top_k ~score ~k:10 joined in
  Test_util.check_score_multiset "weighted top-10" (List.map snd oracle)
    (List.map snd results)

(* Resumption regressions (the cursor contract): a stream paused mid-way
   must continue exactly where it stopped, and a drained stream must stay
   exhausted — repeated s_next past exhaustion returns None without
   re-reading the (already exhausted) inputs. *)

let drain_via_next s =
  let rec go acc =
    match s.Operator.s_next () with
    | Some r -> go (r :: acc)
    | None -> List.rev acc
  in
  go []

let take_via_next s n =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match s.Operator.s_next () with
      | Some r -> go (r :: acc) (n - 1)
      | None -> List.rev acc
  in
  go [] n

let test_hrjn_resume_midway () =
  let ra, rb = make_pair ~na:30 ~nb:30 ~domain:3 ~seed:51 () in
  let full =
    let stream, _ =
      Rank_join.hrjn ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
    in
    Operator.scored_to_list stream
  in
  let stream, _ =
    Rank_join.hrjn ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
  in
  stream.Operator.s_open ();
  let first = take_via_next stream 5 in
  let rest = drain_via_next stream in
  stream.Operator.s_close ();
  Alcotest.(check bool) "paused + resumed = uninterrupted" true
    (List.equal (fun (_, a) (_, b) -> Float.equal a b) full (first @ rest))

let test_hrjn_exhausted_stays_exhausted () =
  let ra, rb = make_pair ~na:25 ~nb:25 ~domain:3 ~seed:53 () in
  let stream, stats =
    Rank_join.hrjn ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
  in
  stream.Operator.s_open ();
  let all = drain_via_next stream in
  Alcotest.(check int) "full join drained"
    (List.length (oracle_topk ra rb max_int))
    (List.length all);
  let dl = Exec_stats.left_depth stats in
  let dr = Exec_stats.right_depth stats in
  for _ = 1 to 5 do
    Alcotest.(check bool) "still exhausted" true
      (Option.is_none (stream.Operator.s_next ()))
  done;
  Alcotest.(check int) "left depth frozen past exhaustion" dl
    (Exec_stats.left_depth stats);
  Alcotest.(check int) "right depth frozen past exhaustion" dr
    (Exec_stats.right_depth stats);
  stream.Operator.s_close ()

let test_hrjn_exhausted_empty_side_stays_stopped () =
  let empty = Relation.create (Test_util.scored_schema "A") [] in
  let rb = Test_util.scored_relation "B" ~n:100 ~domain:4 ~seed:55 in
  let stream, stats =
    Rank_join.hrjn ~combine ~inputs:[ rank_input empty; rank_input rb ] ()
  in
  stream.Operator.s_open ();
  Alcotest.(check bool) "empty join" true
    (Option.is_none (stream.Operator.s_next ()));
  for _ = 1 to 10 do
    ignore (stream.Operator.s_next ())
  done;
  Alcotest.(check bool) "live side not re-read past exhaustion" true
    (Exec_stats.right_depth stats <= 2);
  stream.Operator.s_close ()

let test_nrjn_resume_midway () =
  let ra, rb = make_pair ~na:30 ~nb:30 ~domain:3 ~seed:57 () in
  let mk () =
    let pred = Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") in
    let inner = Operator.of_list (Relation.schema rb) (Relation.tuples rb) in
    let inner_score tu = Value.to_float (Tuple.get tu score_idx) in
    Rank_join.nrjn ~combine ~pred ~outer:(scored_stream ra) ~inner ~inner_score
      ()
  in
  let full =
    let stream, _ = mk () in
    Operator.scored_to_list stream
  in
  let stream, _ = mk () in
  stream.Operator.s_open ();
  let first = take_via_next stream 5 in
  let rest = drain_via_next stream in
  stream.Operator.s_close ();
  Alcotest.(check bool) "paused + resumed = uninterrupted" true
    (List.equal (fun (_, a) (_, b) -> Float.equal a b) full (first @ rest))

let test_nrjn_exhausted_stays_exhausted () =
  let ra = Test_util.scored_relation "A" ~n:40 ~domain:3 ~seed:59 in
  let empty = Relation.create (Test_util.scored_schema "B") [] in
  let pred = Expr.(col ~relation:"A" "key" = col ~relation:"B" "key") in
  let inner = Operator.of_list (Relation.schema empty) [] in
  let inner_score tu = Value.to_float (Tuple.get tu score_idx) in
  let stream, stats =
    Rank_join.nrjn ~combine ~pred ~outer:(scored_stream ra) ~inner ~inner_score
      ()
  in
  stream.Operator.s_open ();
  Alcotest.(check bool) "empty join" true
    (Option.is_none (stream.Operator.s_next ()));
  let d = Exec_stats.left_depth stats in
  for _ = 1 to 10 do
    Alcotest.(check bool) "still exhausted" true
      (Option.is_none (stream.Operator.s_next ()))
  done;
  Alcotest.(check int) "outer depth frozen past exhaustion" d
    (Exec_stats.left_depth stats);
  stream.Operator.s_close ()

let prop_hrjn_equals_oracle =
  QCheck.Test.make ~name:"hrjn: top-k = join-then-sort (random workloads)"
    ~count:60
    QCheck.(pair Test_util.small_rel_params (QCheck.int_range 1 25))
    (fun ((seed, n, domain), k) ->
      let ra = Test_util.scored_relation "A" ~n ~domain ~seed in
      let rb = Test_util.scored_relation "B" ~n ~domain ~seed:(seed + 100) in
      let results, _ = hrjn_results ra rb k in
      let oracle = oracle_topk ra rb k in
      let e = Test_util.score_multiset (List.map snd oracle) in
      let a = Test_util.score_multiset (List.map snd results) in
      List.length e = List.length a
      && List.for_all2 (fun x y -> Test_util.floats_close ~eps:1e-7 x y) e a)

let prop_nrjn_equals_oracle =
  QCheck.Test.make ~name:"nrjn: top-k = join-then-sort (random workloads)"
    ~count:40
    QCheck.(pair Test_util.small_rel_params (QCheck.int_range 1 25))
    (fun ((seed, n, domain), k) ->
      let ra = Test_util.scored_relation "A" ~n ~domain ~seed in
      let rb = Test_util.scored_relation "B" ~n ~domain ~seed:(seed + 200) in
      let results, _ = nrjn_results ra rb k in
      let oracle = oracle_topk ra rb k in
      let e = Test_util.score_multiset (List.map snd oracle) in
      let a = Test_util.score_multiset (List.map snd results) in
      List.length e = List.length a
      && List.for_all2 (fun x y -> Test_util.floats_close ~eps:1e-7 x y) e a)

let prop_hrjn_never_emits_below_later =
  QCheck.Test.make ~name:"hrjn: output is non-increasing" ~count:60
    Test_util.small_rel_params
    (fun (seed, n, domain) ->
      let ra = Test_util.scored_relation "A" ~n ~domain ~seed in
      let rb = Test_util.scored_relation "B" ~n ~domain ~seed:(seed + 300) in
      let stream, _ =
        Rank_join.hrjn ~combine ~inputs:[ rank_input ra; rank_input rb ] ()
      in
      let scores = List.map snd (Operator.scored_to_list stream) in
      let rec ok = function
        | a :: (b :: _ as rest) -> a +. 1e-9 >= b && ok rest
        | _ -> true
      in
      ok scores)

(* A NULL key joins nothing, not even another NULL; the NULL-keyed tuples
   still count toward their inputs' depths. Int 3 and Float 3.0 join. *)
let test_hrjn_null_keys () =
  let rel name rows = Relation.create (Test_util.scored_schema name) rows in
  let rows =
    [
      [| Value.Int 0; Value.Null; Value.Float 0.9 |];
      [| Value.Int 1; Value.Int 1; Value.Float 0.5 |];
    ]
  in
  let stream, stats =
    Rank_join.hrjn ~combine
      ~inputs:[ rank_input (rel "A" rows); rank_input (rel "B" rows) ]
      ()
  in
  let got = Operator.scored_to_list stream in
  Alcotest.(check (list (float 0.0))) "only 1 = 1 joins" [ 1.0 ]
    (List.map snd got);
  Alcotest.(check (array int)) "NULL tuples still drained" [| 2; 2 |]
    (Exec_stats.depths stats);
  let mixed =
    Rank_join.hrjn ~combine
      ~inputs:
        [
          rank_input (rel "A" [ [| Value.Int 0; Value.Int 3; Value.Float 0.5 |] ]);
          rank_input
            (rel "B" [ [| Value.Int 0; Value.Float 3.0; Value.Float 0.25 |] ]);
        ]
      ()
    |> fst |> Operator.scored_to_list
  in
  Alcotest.(check (list (float 0.0))) "Int 3 joins Float 3.0" [ 0.75 ]
    (List.map snd mixed)

let suites =
  [
    ( "exec.rank_join.hrjn",
      [
        Alcotest.test_case "matches oracle" `Quick test_hrjn_matches_oracle;
        Alcotest.test_case "adaptive polling" `Quick test_hrjn_adaptive_polling;
        Alcotest.test_case "early out" `Quick test_hrjn_early_out;
        Alcotest.test_case "full drain" `Quick test_hrjn_emits_all_results_when_k_large;
        Alcotest.test_case "empty inputs" `Quick test_hrjn_empty_inputs;
        Alcotest.test_case "empty input depth" `Quick test_hrjn_empty_input_depth;
        Alcotest.test_case "threshold safety" `Quick test_hrjn_threshold_safety;
        Alcotest.test_case "restart" `Quick test_hrjn_restart;
        Alcotest.test_case "NULL keys join nothing" `Quick test_hrjn_null_keys;
        Alcotest.test_case "depths grow with k" `Quick test_hrjn_depths_grow_with_k;
        Alcotest.test_case "buffer tracked" `Quick test_hrjn_buffer_tracked;
        Alcotest.test_case "weighted combine" `Quick test_weighted_combine;
        Alcotest.test_case "resume midway" `Quick test_hrjn_resume_midway;
        Alcotest.test_case "exhaustion is sticky" `Quick
          test_hrjn_exhausted_stays_exhausted;
        Alcotest.test_case "exhausted-empty side stays stopped" `Quick
          test_hrjn_exhausted_empty_side_stays_stopped;
        QCheck_alcotest.to_alcotest prop_hrjn_equals_oracle;
        QCheck_alcotest.to_alcotest prop_hrjn_never_emits_below_later;
      ] );
    ( "exec.rank_join.nrjn",
      [
        Alcotest.test_case "matches oracle" `Quick test_nrjn_matches_oracle;
        Alcotest.test_case "empty inner" `Quick test_nrjn_empty_inner;
        Alcotest.test_case "empty inner depth" `Quick test_nrjn_empty_inner_depth;
        Alcotest.test_case "depth instrumentation" `Quick test_nrjn_depth_instrumentation;
        Alcotest.test_case "resume midway" `Quick test_nrjn_resume_midway;
        Alcotest.test_case "exhaustion is sticky" `Quick
          test_nrjn_exhausted_stays_exhausted;
        QCheck_alcotest.to_alcotest prop_nrjn_equals_oracle;
      ] );
  ]
