(* Tests for the histogram-slab refinement of the depth model: asymmetric
   score weights must produce asymmetric depth estimates, as threshold
   polling reads deeper on the low-weight side. *)

open Relalg
open Core

let setup ?(n = 4000) ?(domain = 400) ?(seed = 15) () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + i))
           ~name ~n ~key_domain:domain ()))
    [ "A"; "B" ];
  cat

let weighted_query ~wa ~wb ~k =
  Logical.make
    ~relations:
      [
        Logical.base ~score:(Expr.col ~relation:"A" "score") ~weight:wa "A";
        Logical.base ~score:(Expr.col ~relation:"B" "score") ~weight:wb "B";
      ]
    ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
    ~k ()

let hrjn_plan cat ~wa ~wb =
  let ix t =
    (Option.get
       (Storage.Catalog.find_index_on_expr cat ~table:t (Expr.col ~relation:t "score")))
      .Storage.Catalog.ix_name
  in
  let iscan t =
    Plan.Index_scan
      { table = t; index = ix t; key = Expr.col ~relation:t "score"; desc = true }
  in
  Plan.Rank_join
    {
      inputs = [ iscan "A"; iscan "B" ];
      scores =
        [
          Expr.Mul (Expr.cfloat wa, Expr.col ~relation:"A" "score");
          Expr.Mul (Expr.cfloat wb, Expr.col ~relation:"B" "score");
        ];
      keys = [ ("A", "key"); ("B", "key") ];
    }

let depths_for cat ~wa ~wb ~k =
  let q = weighted_query ~wa ~wb ~k in
  let env = Cost_model.default_env ~k_min:k cat q in
  let d = Cost_model.rank_join_depths env (hrjn_plan cat ~wa ~wb) ~k:(float_of_int k) in
  (env, { Depth_model.d_left = d.(0); d_right = d.(1) })

let test_symmetric_weights_symmetric_depths () =
  let cat = setup () in
  let _, d = depths_for cat ~wa:0.5 ~wb:0.5 ~k:10 in
  (* The empirical score ranges of the two tables differ slightly, so allow
     a small relative tolerance. *)
  Test_util.check_floats_close ~eps:1e-2 "dL = dR" d.Depth_model.d_left
    d.Depth_model.d_right

let test_asymmetric_weights_asymmetric_depths () =
  (* Low weight on B means B's scores barely matter: the model should read
     deeper into B (small slab -> fine discrimination needed) than into A. *)
  let cat = setup () in
  let _, d = depths_for cat ~wa:0.9 ~wb:0.1 ~k:10 in
  Alcotest.(check bool)
    (Printf.sprintf "dR (%.0f) > dL (%.0f)" d.Depth_model.d_right d.Depth_model.d_left)
    true
    (d.Depth_model.d_right > d.Depth_model.d_left *. 1.5)

let test_slab_formula_matches_handmade () =
  (* With uniform scores on [0,1], slabs are wa/(n-1) and wb/(n-1); the
     equal-decrement stop dL = sqrt(2 k y/(x s)), dR = sqrt(2 k x/(y s))
     should match the model output before clamping (here well inside
     bounds). *)
  let cat = setup ~n:4000 ~domain:400 () in
  let k = 10 in
  let wa = 0.8 and wb = 0.2 in
  let env, d = depths_for cat ~wa ~wb ~k in
  let s =
    Cost_model.join_selectivity env
      { Logical.left_table = "A"; left_column = "key"; right_table = "B"; right_column = "key" }
  in
  let x = wa and y = wb in
  (* slabs share the 1/(n-1) factor, which cancels in the formulas *)
  let k = float_of_int k in
  Test_util.check_floats_close ~eps:1e-2 "dL"
    (sqrt (2.0 *. k *. y /. (x *. s)))
    d.Depth_model.d_left;
  Test_util.check_floats_close ~eps:1e-2 "dR"
    (sqrt (2.0 *. k *. x /. (y *. s)))
    d.Depth_model.d_right

let test_weighted_execution_follows_asymmetry () =
  (* End to end: threshold polling reads deeper on the low-weight side, as
     the slab model predicts, and results stay correct. *)
  let cat = setup ~n:3000 ~domain:300 () in
  let k = 10 in
  let q = weighted_query ~wa:0.9 ~wb:0.1 ~k in
  let planned, result = Optimizer.run_query cat q in
  if Plan.has_rank_join planned.Optimizer.plan then begin
    match result.Executor.rank_nodes with
    | [ rn ] ->
        let dl = (Exec.Exec_stats.left_depth rn.Executor.stats) in
        let dr = (Exec.Exec_stats.right_depth rn.Executor.stats) in
        (* One side must be read substantially deeper than the other; which
           physical side holds B depends on the chosen join order. *)
        let lo = min dl dr and hi = max dl dr in
        Alcotest.(check bool)
          (Printf.sprintf "asymmetric consumption (%d vs %d)" dl dr)
          true
          (hi > lo * 2)
    | _ -> Alcotest.fail "expected one rank node"
  end;
  (* Correctness regardless of plan. *)
  let rel name =
    let info = Storage.Catalog.table cat name in
    Relation.create info.Storage.Catalog.tb_schema
      (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)
  in
  let joined =
    Relation.join ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
      (rel "A") (rel "B")
  in
  let score =
    Expr.weighted_sum
      [ (0.9, Expr.col ~relation:"A" "score"); (0.1, Expr.col ~relation:"B" "score") ]
  in
  let oracle = Relation.top_k ~score ~k joined in
  Test_util.check_score_multiset "weighted answers" (List.map snd oracle)
    (List.map snd result.Executor.rows)

let suites =
  [
    ( "core.slab_estimation",
      [
        Alcotest.test_case "symmetric weights" `Quick test_symmetric_weights_symmetric_depths;
        Alcotest.test_case "asymmetric weights" `Quick test_asymmetric_weights_asymmetric_depths;
        Alcotest.test_case "matches closed form" `Quick test_slab_formula_matches_handmade;
        Alcotest.test_case "execution follows" `Quick test_weighted_execution_follows_asymmetry;
      ] );
  ]
