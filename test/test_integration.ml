(* Cross-library integration tests: rank-aggregation over catalog indexes
   (top-k selection), TA vs rank-join equivalence on the video scenario, and
   a Monte-Carlo validation of the Equation-1 score distribution. *)

open Relalg

let video ?(n = 300) ?(seed = 11) () =
  Workload.Video.build ~seed ~n_objects:n
    ~features:[ "ColorHist"; "Texture" ] ()

let test_index_source_matches_heap () =
  let v = video () in
  let cat = v.Workload.Video.catalog in
  let ix =
    Option.get
      (Storage.Catalog.find_index_on_expr cat ~table:"ColorHist"
         (Expr.col ~relation:"ColorHist" "score"))
  in
  let src = Ranking.Index_sources.of_index cat ~score_index:ix ~id_column:"oid" in
  Alcotest.(check int) "size" 300 (Ranking.Source.size src);
  (* Best entry matches max score in the table. *)
  let info = Storage.Catalog.table cat "ColorHist" in
  let best =
    List.fold_left
      (fun acc tu -> Float.max acc (Value.to_float (Tuple.get tu 1)))
      neg_infinity
      (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)
  in
  Test_util.check_floats_close "top score" best (Ranking.Source.top_score src)

let test_index_source_weight_validation () =
  let v = video () in
  let cat = v.Workload.Video.catalog in
  let ix =
    Option.get
      (Storage.Catalog.find_index_on_expr cat ~table:"Texture"
         (Expr.col ~relation:"Texture" "score"))
  in
  Alcotest.check_raises "weight 0"
    (Invalid_argument "Index_sources.of_index: weight <= 0") (fun () ->
      ignore (Ranking.Index_sources.of_index ~weight:0.0 cat ~score_index:ix ~id_column:"oid"))

let selection_algorithms = [ `Ta; `Nra; `Fagin; `Naive ]

let test_topk_selection_algorithms_agree () =
  let v = video () in
  let cat = v.Workload.Video.catalog in
  let run algorithm =
    Ranking.Index_sources.top_k_selection cat
      ~tables:[ ("ColorHist", 0.4); ("Texture", 0.6) ]
      ~algorithm ~id_column:"oid" ~score_column:"score" ~k:10 ()
  in
  let base = List.sort compare (List.map fst (run `Naive)) in
  List.iter
    (fun algorithm ->
      let ids = List.sort compare (List.map fst (run algorithm)) in
      Alcotest.(check (list int)) "same object set" base ids)
    selection_algorithms

let test_topk_selection_equals_rank_join () =
  (* Top-k selection (TA over per-feature sources) and the top-k join on
     oid = oid must produce the same objects and combined scores. *)
  let v = video ~n:150 ~seed:12 () in
  let cat = v.Workload.Video.catalog in
  let selection =
    Ranking.Index_sources.top_k_selection cat
      ~tables:[ ("ColorHist", 1.0); ("Texture", 1.0) ]
      ~id_column:"oid" ~score_column:"score" ~k:8 ()
  in
  let q =
    Core.Logical.make
      ~relations:
        [
          Core.Logical.base ~score:(Expr.col ~relation:"ColorHist" "score") "ColorHist";
          Core.Logical.base ~score:(Expr.col ~relation:"Texture" "score") "Texture";
        ]
      ~joins:[ Core.Logical.equijoin ("ColorHist", "oid") ("Texture", "oid") ]
      ~k:8 ()
  in
  let _, result = Core.Optimizer.run_query cat q in
  Test_util.check_score_multiset "selection = join"
    (List.map snd selection)
    (List.map snd result.Core.Executor.rows)

let test_eq1_monte_carlo () =
  (* Equation 1 predicts the expected i-th largest of m draws from u_j near
     the top of the distribution; check against simulation for j = 2, 3. *)
  let prng = Rkutil.Prng.create 13 in
  let trials = 300 in
  let m = 400 in
  List.iter
    (fun j ->
      let n = 1.0 in
      List.iter
        (fun i ->
          let acc = ref 0.0 in
          for _ = 1 to trials do
            let draws =
              Array.init m (fun _ ->
                  Workload.Dist.sample prng (Workload.Dist.Sum_uniform { j }))
            in
            Array.sort (fun a b -> Float.compare b a) draws;
            acc := !acc +. draws.(i - 1)
          done;
          let empirical = !acc /. float_of_int trials in
          let predicted =
            Core.Score_dist.expected_score_at ~j ~n ~m:(float_of_int m)
              ~i:(float_of_int i)
          in
          let err =
            Rkutil.Mathx.relative_error ~actual:empirical ~estimate:predicted
          in
          if err > 0.08 then
            Alcotest.failf "j=%d i=%d: empirical %.4f vs predicted %.4f (err %.1f%%)"
              j i empirical predicted (100.0 *. err))
        [ 1; 3; 10 ])
    [ 2; 3 ]

let test_uniform_depth_monte_carlo () =
  (* For two uniform inputs the model says reading 2*sqrt(k/s) tuples per
     side suffices to contain the top-k join results; validate containment
     empirically on random instances. *)
  let prng = Rkutil.Prng.create 14 in
  let n = 400 and domain = 20 and k = 5 in
  let s = 1.0 /. float_of_int domain in
  let depth =
    let side = { Core.Depth_model.fan = 1; card = float_of_int n } in
    Rkutil.Mathx.ceil_to_int
      (Core.Depth_model.worst_case_depths
         { Core.Depth_model.k = float_of_int k; s; n = float_of_int n; left = side; right = side })
        .Core.Depth_model.d_left
  in
  let failures = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    let mk name =
      Relation.create
        (Test_util.scored_schema name)
        (List.init n (fun i ->
             [|
               Value.Int i;
               Value.Int (Rkutil.Prng.int prng domain);
               Value.Float (Rkutil.Prng.uniform prng);
             |]))
    in
    let ra = mk "A" and rb = mk "B" in
    let prefix r d =
      let sorted = Relation.sort_by ~desc:true (Expr.col "score") r in
      Relation.create (Relation.schema r)
        (List.filteri (fun i _ -> i < d) (Relation.tuples sorted))
    in
    let joined r1 r2 =
      Relation.join
        ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
        r1 r2
    in
    let score = Expr.(col ~relation:"A" "score" + col ~relation:"B" "score") in
    let full_top = Relation.top_k ~score ~k (joined ra rb) in
    let prefix_top =
      Relation.top_k ~score ~k (joined (prefix ra depth) (prefix rb depth))
    in
    let ok =
      List.length full_top = List.length prefix_top
      && List.for_all2
           (fun (_, a) (_, b) -> Test_util.floats_close ~eps:1e-9 a b)
           full_top prefix_top
    in
    if not ok then incr failures
  done;
  (* The worst-case bound holds in expectation terms; allow rare misses. *)
  Alcotest.(check bool)
    (Printf.sprintf "containment failures %d/%d" !failures trials)
    true
    (!failures <= 2)

let suites =
  [
    ( "integration.index_sources",
      [
        Alcotest.test_case "index source = heap" `Quick test_index_source_matches_heap;
        Alcotest.test_case "weight validation" `Quick test_index_source_weight_validation;
        Alcotest.test_case "algorithms agree" `Quick test_topk_selection_algorithms_agree;
        Alcotest.test_case "selection = rank join" `Quick test_topk_selection_equals_rank_join;
      ] );
    ( "integration.model_monte_carlo",
      [
        Alcotest.test_case "eq1 vs simulation" `Slow test_eq1_monte_carlo;
        Alcotest.test_case "uniform depth containment" `Slow test_uniform_depth_monte_carlo;
      ] );
  ]
