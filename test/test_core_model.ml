(* Tests for the estimation machinery: score distributions (Eq. 1), the
   depth model (Theorems 1-2, Eqs. 2-5), cost model and k propagation. *)

open Relalg
open Core

let test_score_dist_eq1_uniform_case () =
  (* j = 1: score_i = n - i*n/m, the familiar uniform order statistic. *)
  let n = 100.0 and m = 1000.0 in
  List.iter
    (fun i ->
      let expected = n -. (i *. n /. m) in
      Test_util.check_floats_close ~eps:1e-9
        (Printf.sprintf "i=%g" i)
        expected
        (Score_dist.expected_score_at ~j:1 ~n ~m ~i))
    [ 1.0; 10.0; 500.0 ]

let test_score_dist_eq1_triangular () =
  (* j = 2, i <= m/2 region: score_i = 2n - sqrt(2 i n^2 / m). *)
  let n = 50.0 and m = 400.0 in
  let i = 8.0 in
  let expected = (2.0 *. n) -. sqrt (2.0 *. i *. n *. n /. m) in
  Test_util.check_floats_close ~eps:1e-9 "triangular top"
    expected
    (Score_dist.expected_score_at ~j:2 ~n ~m ~i)

let test_score_dist_monotone_in_i () =
  let n = 10.0 and m = 100.0 in
  let prev = ref infinity in
  for i = 1 to 50 do
    let s = Score_dist.expected_score_at ~j:3 ~n ~m ~i:(float_of_int i) in
    if s > !prev then Alcotest.failf "score increased at i=%d" i;
    prev := s
  done

let test_score_dist_pdf_u2 () =
  let n = 1.0 in
  Test_util.check_floats_close ~eps:1e-12 "peak" 1.0 (Score_dist.pdf_u2 ~n 1.0);
  Test_util.check_floats_close ~eps:1e-12 "zero at 0" 0.0 (Score_dist.pdf_u2 ~n 0.0);
  Test_util.check_floats_close ~eps:1e-12 "zero at 2n" 0.0 (Score_dist.pdf_u2 ~n 2.0);
  Alcotest.(check (float 0.0)) "outside" 0.0 (Score_dist.pdf_u2 ~n 3.0);
  (* Integrates to ~1. *)
  let steps = 10_000 in
  let dx = 2.0 /. float_of_int steps in
  let integral = ref 0.0 in
  for i = 0 to steps - 1 do
    integral := !integral +. (Score_dist.pdf_u2 ~n ((float_of_int i +. 0.5) *. dx) *. dx)
  done;
  Test_util.check_floats_close ~eps:1e-4 "integral" 1.0 !integral

let test_score_dist_validation () =
  Alcotest.check_raises "j=0" (Invalid_argument "Score_dist.expected_score_at: j < 1")
    (fun () -> ignore (Score_dist.expected_score_at ~j:0 ~n:1.0 ~m:1.0 ~i:1.0))

(* --- Depth model --- *)

let test_any_k_satisfies_theorem1 () =
  (* Theorem 1: s * cL * cR >= k. *)
  List.iter
    (fun (k, s, x, y) ->
      let c_l, c_r = Depth_model.any_k_depths ~k ~s ~x ~y in
      Alcotest.(check bool)
        (Printf.sprintf "k=%g s=%g" k s)
        true
        (s *. c_l *. c_r >= k -. 1e-6))
    [ (1.0, 0.5, 1.0, 1.0); (10.0, 0.01, 1.0, 2.0); (100.0, 0.001, 0.3, 0.7) ]

let test_any_k_minimizes_delta () =
  (* The chosen (cL, cR) minimise delta = x cL + y cR subject to s cL cR = k:
     perturbing along the constraint must not decrease delta. *)
  let k = 50.0 and s = 0.02 and x = 0.4 and y = 1.3 in
  let c_l, c_r = Depth_model.any_k_depths ~k ~s ~x ~y in
  let delta cl = (x *. cl) +. (y *. (k /. (s *. cl))) in
  let d0 = delta c_l in
  Test_util.check_floats_close ~eps:1e-9 "on constraint" c_r (k /. (s *. c_l));
  List.iter
    (fun f ->
      Alcotest.(check bool) "perturbation not better" true (delta (c_l *. f) >= d0 -. 1e-9))
    [ 0.5; 0.9; 1.1; 2.0 ]

(* The threshold-polling depths over inputs of [card] tuples each with the
   given fans, over unit score ranges. *)
let threshold ?(k = 10.0) ?(s = 0.01) fans cards =
  Depth_model.threshold_depths ~k ~s
    (Array.map2
       (fun fan card -> { Depth_model.density = card; fan; card })
       fans cards)

(* Slab inputs: single base relations whose scores fall by [x] per rank. *)
let slab_inputs ?(card = 1e9) slabs =
  Array.map (fun x -> { Depth_model.density = 1.0 /. x; fan = 1; card }) slabs

let test_top_k_slab_depths () =
  (* Slab mode: both inputs stop at the same score decrement d_i * x_i. *)
  List.iter
    (fun (k, s, x, y) ->
      let d = Depth_model.threshold_depths ~k ~s (slab_inputs [| x; y |]) in
      Test_util.check_floats_close ~eps:1e-9
        (Printf.sprintf "k=%g x=%g y=%g: dL x = dR y" k x y)
        (d.(0) *. x) (d.(1) *. y);
      (* ... the decrement within which k results lie: s dL dR / 2 = k. *)
      Test_util.check_floats_close ~eps:1e-9 "k results within delta" k
        (s *. d.(0) *. d.(1) /. 2.0))
    [ (25.0, 0.01, 1.0, 1.0); (10.0, 0.05, 0.8, 1.7); (100.0, 0.001, 0.3, 0.7) ]

let test_top_k_dominates_any_k () =
  let k = 10.0 and s = 0.05 and x = 0.8 and y = 1.7 in
  let c_l, c_r = Depth_model.any_k_depths ~k ~s ~x ~y in
  let d = Depth_model.threshold_depths ~k ~s (slab_inputs [| x; y |]) in
  Alcotest.(check bool) "dL >= cL" true (d.(0) >= c_l);
  Alcotest.(check bool) "dR >= cR" true (d.(1) >= c_r)

let params ?(k = 10.0) ?(s = 0.01) ?(n = 1000.0) ?(l = 1) ?(r = 1) () =
  {
    Depth_model.k;
    s;
    n;
    left = { Depth_model.fan = l; card = n ** float_of_int l };
    right = { Depth_model.fan = r; card = n ** float_of_int r };
  }

let test_worst_case_reduces_to_uniform () =
  (* l = r = 1 must give 2 sqrt(k/s) exactly (Eqs. 2-5 specialised). *)
  let p = params ~k:40.0 ~s:0.004 () in
  let d = Depth_model.worst_case_depths p in
  let expected = 2.0 *. sqrt (40.0 /. 0.004) in
  Test_util.check_floats_close ~eps:1e-9 "dL" expected d.Depth_model.d_left;
  Test_util.check_floats_close ~eps:1e-9 "dR" expected d.Depth_model.d_right

let test_average_case_reduces_to_sqrt2ks () =
  (* m = 2, fan 1, card = n: sqrt(2k/s), whatever n is. *)
  List.iter
    (fun n ->
      let d = threshold ~k:40.0 ~s:0.004 [| 1; 1 |] [| n; n |] in
      let expected = sqrt (2.0 *. 40.0 /. 0.004) in
      Test_util.check_floats_close ~eps:1e-9 "dL" expected d.(0);
      Test_util.check_floats_close ~eps:1e-9 "dR" expected d.(1))
    [ 1e5; 1e7 ]

(* With every card = n the form is the average case of Section 4.3:
   dL^(l+r) = ((l+r)!)^l k^l n^(r-l) / ((l!)^(l+r) s^l). Expected values
   computed from that closed form (k = 20, s = 0.01, n = 500). *)
let average_case_expected =
  [
    (1, 1, 63.245553203367585, 63.245553203367585);
    (2, 1, 33.01927248894625, 181.71205928321385);
    (1, 2, 181.71205928321385, 33.01927248894625);
    (2, 2, 109.54451150103309, 109.54451150103309);
    (3, 2, 81.317027297795747, 245.95094858493647);
  ]

let test_equals_average_case () =
  List.iter
    (fun (l, r, e_l, e_r) ->
      let d = threshold ~k:20.0 ~s:0.01 [| l; r |] [| 500.0; 500.0 |] in
      Test_util.check_floats_close ~eps:1e-6
        (Printf.sprintf "l=%d r=%d dL" l r) e_l d.(0);
      Test_util.check_floats_close ~eps:1e-6
        (Printf.sprintf "l=%d r=%d dR" l r) e_r d.(1))
    average_case_expected

let test_symmetric_m_way () =
  List.iter
    (fun m ->
      let k = 10.0 and s = 0.01 in
      let d = threshold ~k ~s (Array.make m 1) (Array.make m 1e12) in
      let mf = float_of_int m in
      let expected =
        (exp (Rkutil.Mathx.log_factorial m) *. k /. (s ** (mf -. 1.0))) ** (1.0 /. mf)
      in
      Array.iteri
        (fun i di ->
          Test_util.check_floats_close ~eps:1e-9
            (Printf.sprintf "m=%d d%d" m i) expected di)
        d)
    [ 2; 3; 4 ]

let test_average_below_worst () =
  List.iter
    (fun (l, r) ->
      let p = params ~k:20.0 ~s:0.01 ~n:500.0 ~l ~r () in
      let w = Depth_model.worst_case_depths p in
      let a = threshold ~k:20.0 ~s:0.01 [| l; r |] [| 500.0; 500.0 |] in
      Alcotest.(check bool)
        (Printf.sprintf "l=%d r=%d dL" l r)
        true
        (a.(0) <= w.Depth_model.d_left +. 1e-6);
      Alcotest.(check bool)
        (Printf.sprintf "l=%d r=%d dR" l r)
        true
        (a.(1) <= w.Depth_model.d_right +. 1e-6))
    [ (1, 1); (2, 1); (1, 2); (2, 2); (3, 2) ]

let test_depths_monotone_in_k () =
  let prev = ref 0.0 in
  List.iter
    (fun k ->
      let d = threshold ~k [| 2; 1 |] [| 1e6; 1e3 |] in
      Alcotest.(check bool) "monotone" true (d.(0) >= !prev);
      prev := d.(0))
    [ 1.0; 5.0; 25.0; 125.0 ]

let test_depths_decrease_with_selectivity () =
  let d1 = threshold ~s:0.001 [| 1; 1 |] [| 1e3; 1e3 |] in
  let d2 = threshold ~s:0.1 [| 1; 1 |] [| 1e3; 1e3 |] in
  Alcotest.(check bool) "higher selectivity, shallower" true (d2.(0) < d1.(0))

let test_clamping () =
  let d = threshold ~k:1e9 ~s:1e-9 [| 1; 1 |] [| 100.0; 100.0 |] in
  Alcotest.(check bool) "clamped to card" true (d.(0) <= 100.0 +. 1e-9);
  let d = threshold ~k:1.0 ~s:1.0 [| 1; 1 |] [| 1e-3; 1e-3 |] in
  Alcotest.(check bool) "at least 1" true (d.(0) >= 1.0)

let test_buffer_bound () =
  let d = { Depth_model.d_left = 100.0; d_right = 200.0 } in
  Test_util.check_floats_close ~eps:1e-12 "dL dR s" 200.0
    (Depth_model.buffer_upper_bound d ~s:0.01)

let test_depth_validation () =
  let valid = [| 1; 1 |] and cards = [| 10.0; 10.0 |] in
  Alcotest.check_raises "bad k" (Invalid_argument "Depth_model: k < 1") (fun () ->
      ignore (threshold ~k:0.5 ~s:0.5 valid cards));
  Alcotest.check_raises "bad s"
    (Invalid_argument "Depth_model: selectivity outside (0,1]") (fun () ->
      ignore (threshold ~k:5.0 ~s:0.0 valid cards));
  Alcotest.check_raises "one input"
    (Invalid_argument "Depth_model.threshold_depths: fewer than 2 inputs")
    (fun () -> ignore (threshold [| 1 |] [| 10.0 |]));
  Alcotest.check_raises "fan 0" (Invalid_argument "Depth_model: fan < 1")
    (fun () -> ignore (threshold [| 0; 1 |] cards))

let prop_theorem1_holds =
  QCheck.Test.make ~name:"depth model: s*cL*cR >= k always" ~count:300
    QCheck.(
      triple (float_range 1.0 1000.0) (float_range 0.0001 1.0)
        (pair (float_range 0.01 10.0) (float_range 0.01 10.0)))
    (fun (k, s, (x, y)) ->
      let c_l, c_r = Depth_model.any_k_depths ~k ~s ~x ~y in
      s *. c_l *. c_r >= k -. 1e-6)

let prop_worst_case_symmetry =
  QCheck.Test.make ~name:"depth model: swapping sides swaps depths" ~count:200
    QCheck.(
      triple (float_range 1.0 500.0) (float_range 0.001 0.5)
        (pair (int_range 1 4) (int_range 1 4)))
    (fun (k, s, (l, r)) ->
      let p = params ~k ~s ~n:1000.0 ~l ~r () in
      let q = params ~k ~s ~n:1000.0 ~l:r ~r:l () in
      let dp = Depth_model.worst_case_depths p in
      let dq = Depth_model.worst_case_depths q in
      Test_util.floats_close ~eps:1e-6 dp.Depth_model.d_left dq.Depth_model.d_right
      && Test_util.floats_close ~eps:1e-6 dp.Depth_model.d_right dq.Depth_model.d_left)

(* --- Cost model and propagation --- *)

let setup ?(n = 1000) ?(domain = 100) ?(k = 10) () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (100 + i))
           ~name ~n ~key_domain:domain ()))
    [ "A"; "B"; "C" ];
  let query =
    Logical.make
      ~relations:
        [
          Logical.base ~score:(Expr.col ~relation:"A" "score") ~weight:0.5 "A";
          Logical.base ~score:(Expr.col ~relation:"B" "score") ~weight:0.5 "B";
        ]
      ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
      ~k ()
  in
  let env = Cost_model.default_env ~k_min:k cat query in
  (cat, query, env)

let scan t = Plan.Table_scan { table = t }

let score_of t = Expr.col ~relation:t "score"

let ab_cond =
  {
    Logical.left_table = "A";
    left_column = "key";
    right_table = "B";
    right_column = "key";
  }

let hrjn_plan () =
  Plan.Rank_join
    {
      inputs =
        [
          Plan.Sort { order = { Plan.expr = score_of "A"; direction = Interesting_orders.Desc }; input = scan "A" };
          Plan.Sort { order = { Plan.expr = score_of "B"; direction = Interesting_orders.Desc }; input = scan "B" };
        ];
      scores =
        [ Expr.Mul (Expr.cfloat 0.5, score_of "A"); Expr.Mul (Expr.cfloat 0.5, score_of "B") ];
      keys = [ ("A", "key"); ("B", "key") ];
    }

let sort_plan () =
  let join =
    Plan.Join
      {
        algo = Plan.Hash;
        cond = ab_cond;
        left = scan "A";
        right = scan "B";
        left_score = None;
        right_score = None;
      }
  in
  Plan.Sort
    {
      order =
        {
          Plan.expr =
            Expr.weighted_sum [ (0.5, score_of "A"); (0.5, score_of "B") ];
          direction = Interesting_orders.Desc;
        };
      input = join;
    }

let test_join_cardinality_estimate () =
  let _, _, env = setup () in
  let est = Cost_model.estimate env (Plan.Join { algo = Plan.Hash; cond = ab_cond; left = scan "A"; right = scan "B"; left_score = None; right_score = None }) in
  (* n^2 / domain = 1000*1000/100 = 10_000 within histogram-distinct noise. *)
  Alcotest.(check bool) "rows near 10k" true
    (est.Cost_model.rows > 5_000.0 && est.Cost_model.rows < 20_000.0)

let test_scan_cost_scales_with_pages () =
  let cat, query, _ = setup () in
  let env = Cost_model.default_env cat query in
  let est = Cost_model.estimate env (scan "A") in
  let info = Storage.Catalog.table cat "A" in
  let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
  Alcotest.(check bool) "cost >= pages" true (est.Cost_model.total_cost >= pages)

let test_sort_plan_cost_k_independent () =
  let _, _, env = setup () in
  let est = Cost_model.estimate env (sort_plan ()) in
  Alcotest.(check bool) "not k-dependent" false est.Cost_model.k_dependent;
  Test_util.check_floats_close "cost_at 1 = total" est.Cost_model.total_cost
    (est.Cost_model.cost_at 1.0)

let test_rank_plan_cost_grows_with_k () =
  let _, _, env = setup () in
  let est = Cost_model.estimate env (hrjn_plan ()) in
  Alcotest.(check bool) "k-dependent" true est.Cost_model.k_dependent;
  let c1 = est.Cost_model.cost_at 1.0 in
  let c100 = est.Cost_model.cost_at 100.0 in
  let c1000 = est.Cost_model.cost_at 1000.0 in
  Alcotest.(check bool) "increasing" true (c1 <= c100 && c100 <= c1000)

let test_k_star_exists_or_rank_dominates () =
  let _, _, env = setup () in
  (* Use pipelined rank plan (index scans) vs the sort plan. *)
  match Cost_model.k_star env ~rank_plan:(hrjn_plan ()) ~sort_plan:(sort_plan ()) with
  | None ->
      (* Rank plan cheaper everywhere; verify at full output. *)
      let r = Cost_model.estimate env (hrjn_plan ()) in
      let s = Cost_model.estimate env (sort_plan ()) in
      Alcotest.(check bool) "rank cheaper at na" true
        (r.Cost_model.cost_at r.Cost_model.rows <= s.Cost_model.total_cost)
  | Some k_star ->
      let r = Cost_model.estimate env (hrjn_plan ()) in
      let s = Cost_model.estimate env (sort_plan ()) in
      Test_util.check_floats_close ~eps:1e-3 "costs equal at k*"
        (r.Cost_model.cost_at k_star) s.Cost_model.total_cost

let test_filter_selectivity_histogram () =
  let cat, query, _ = setup () in
  let env = Cost_model.default_env cat query in
  let sel =
    Cost_model.filter_selectivity env
      Expr.(Cmp (Le, col ~relation:"A" "score", cfloat 0.25))
  in
  Alcotest.(check bool) "sel near 0.25" true (Float.abs (sel -. 0.25) < 0.08)

let test_propagate_assigns_root_k () =
  let _, _, env = setup ~k:10 () in
  let plan = Plan.Top_k { k = 10; input = hrjn_plan () } in
  let ann = Propagate.run env ~k:10 plan in
  Alcotest.(check (float 0.0)) "root k" 10.0 ann.Propagate.required;
  match Propagate.rank_join_annotations ann with
  | [ (_, required, d) ] ->
      Alcotest.(check (float 0.0)) "rank node k" 10.0 required;
      Alcotest.(check bool) "depths positive" true
        (d.Depth_model.d_left >= 1.0 && d.Depth_model.d_right >= 1.0)
  | other -> Alcotest.failf "expected 1 rank node, got %d" (List.length other)

let test_propagate_hierarchy_k_grows_downward () =
  (* In a two-level rank-join pipeline, the child must produce at least as
     many results as the parent's input depth — Figure 4's 100 -> 580 -> 783
     pattern: the child's required k exceeds the root's. *)
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (200 + i))
           ~name ~n:5000 ~key_domain:500 ()))
    [ "A"; "B"; "C" ];
  let query =
    Logical.make
      ~relations:
        [
          Logical.base ~score:(Expr.col ~relation:"A" "score") "A";
          Logical.base ~score:(Expr.col ~relation:"B" "score") "B";
          Logical.base ~score:(Expr.col ~relation:"C" "score") "C";
        ]
      ~joins:
        [
          Logical.equijoin ("A", "key") ("B", "key");
          Logical.equijoin ("B", "key") ("C", "key");
        ]
      ~k:100 ()
  in
  let env = Cost_model.default_env ~k_min:100 cat query in
  let desc t = Plan.Sort { order = { Plan.expr = score_of t; direction = Interesting_orders.Desc }; input = scan t } in
  let child =
    Plan.Rank_join
      {
        inputs = [ desc "B"; desc "C" ];
        scores = [ score_of "B"; score_of "C" ];
        keys = [ ("B", "key"); ("C", "key") ];
      }
  in
  let root =
    Plan.Rank_join
      {
        inputs = [ desc "A"; child ];
        scores = [ score_of "A"; Expr.Add (score_of "B", score_of "C") ];
        keys = [ ("A", "key"); ("B", "key") ];
      }
  in
  let ann = Propagate.run env ~k:100 (Plan.Top_k { k = 100; input = root }) in
  match Propagate.rank_join_annotations ann with
  | [ (_, top_k, top_d); (_, child_k, _) ] ->
      Alcotest.(check (float 0.0)) "top k" 100.0 top_k;
      Test_util.check_floats_close ~eps:1e-9 "child k = top right depth"
        top_d.Depth_model.d_right child_k;
      Alcotest.(check bool) "child k > top k" true (child_k > top_k)
  | other -> Alcotest.failf "expected 2 rank nodes, got %d" (List.length other)

(* NRJN is costed on the closed-form outer depth. The depth Propagate
   gives it, which EXPLAIN ANALYZE prints and planlint checks, must be that
   same depth, also where both sides are single scored base relations and
   the histogram-slab form would differ (asymmetric weights). *)
let test_nrjn_propagated_depth_is_costed () =
  let _, _, env = setup ~k:10 () in
  let left =
    Plan.Sort
      {
        order = { Plan.expr = score_of "A"; direction = Interesting_orders.Desc };
        input = scan "A";
      }
  and right = scan "B" in
  let plan =
    Plan.Join
      {
        algo = Plan.Nrjn;
        cond = ab_cond;
        left;
        right;
        left_score = Some (Expr.Mul (Expr.cfloat 0.9, score_of "A"));
        right_score = Some (Expr.Mul (Expr.cfloat 0.1, score_of "B"));
      }
  in
  let d =
    match (Propagate.run env ~k:10 plan).Propagate.depths with
    | Some d -> d.(0)
    | None -> Alcotest.fail "NRJN node without depths"
  in
  let est = Cost_model.estimate env plan in
  let l = Cost_model.estimate env left and r = Cost_model.estimate env right in
  (* The NRJN estimate at x = 10: the outer's prefix to depth d, one inner
     scan per outer tuple, and 0.002 CPU per probed pair and result. *)
  let costed =
    l.Cost_model.cost_at d
    +. (d *. r.Cost_model.total_cost)
    +. (0.002 *. ((d *. r.Cost_model.rows) +. 10.0))
  in
  Test_util.check_floats_close ~eps:1e-12 "cost at k from the propagated depth"
    costed (est.Cost_model.cost_at 10.0)

(* Plan P of Figure 11 over the Figure 13 catalog: HRJN(HRJN(A,B),C), every
   input a descending score-index scan; n = 10 000 per table, s = 1/1000. *)
let plan_p_setup () =
  let cat = Storage.Catalog.create ~pool_frames:64 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (51 + (31 * i)))
           ~name ~n:10_000 ~key_domain:1000 ()))
    [ "A"; "B"; "C" ];
  let desc t =
    match Storage.Catalog.find_index_on_expr cat ~table:t (score_of t) with
    | Some ix ->
        Plan.Index_scan
          { table = t; index = ix.Storage.Catalog.ix_name; key = score_of t; desc = true }
    | None -> Alcotest.failf "no score index on %s" t
  in
  let child =
    Plan.Rank_join
      {
        inputs = [ desc "A"; desc "B" ];
        scores = [ score_of "A"; score_of "B" ];
        keys = [ ("A", "key"); ("B", "key") ];
      }
  in
  let plan_p =
    Plan.Rank_join
      {
        inputs = [ child; desc "C" ];
        scores = [ Expr.Add (score_of "A", score_of "B"); score_of "C" ];
        keys = [ ("B", "key"); ("C", "key") ];
      }
  in
  let query k =
    Logical.make
      ~relations:
        (List.map (fun t -> Logical.base ~score:(score_of t) t) [ "A"; "B"; "C" ])
      ~joins:
        [
          Logical.equijoin ("A", "key") ("B", "key");
          Logical.equijoin ("B", "key") ("C", "key");
        ]
      ~k ()
  in
  (cat, plan_p, query)

(* Propagated and measured depths of Plan P at k, paired node by node: the
   executor lists its rank joins in the annotations' pre-order. *)
let plan_p_depths cat plan_p query k =
  let plan = Plan.Top_k { k; input = plan_p } in
  let env = Cost_model.default_env ~k_min:k cat (query k) in
  let ann = Propagate.rank_join_annotations (Propagate.run env ~k plan) in
  let run = Executor.run cat plan in
  Alcotest.(check (list string)) "node labels in pre-order"
    (List.map (fun (node, _, _) -> Plan.describe node) ann)
    (List.map (fun rn -> rn.Executor.label) run.Executor.rank_nodes);
  List.map2
    (fun (_, _, d) rn ->
      ( rn.Executor.label,
        [| d.Depth_model.d_left; d.Depth_model.d_right |],
        Exec.Exec_stats.depths rn.Executor.stats ))
    ann run.Executor.rank_nodes

let test_plan_p_nodes_pair_up () =
  let cat, plan_p, query = plan_p_setup () in
  let child_plan =
    match plan_p with
    | Plan.Rank_join { inputs = c :: _; _ } -> c
    | _ -> assert false
  in
  match plan_p_depths cat plan_p query 10 with
  | [ (top, _, _); (child, _, _) ] ->
      Alcotest.(check string) "top first" (Plan.describe plan_p) top;
      Alcotest.(check string) "child second" (Plan.describe child_plan) child
  | l -> Alcotest.failf "expected 2 rank joins, got %d" (List.length l)

(* Figure 13: the depth model predicts where threshold polling stops. Every
   measured depth of both operators lies within 15% of the propagated one. *)
let test_fig13_depths_within_15pct () =
  let cat, plan_p, query = plan_p_setup () in
  List.iter
    (fun k ->
      List.iter
        (fun (label, predicted, measured) ->
          Array.iteri
            (fun i m ->
              let err =
                Float.abs (predicted.(i) -. float_of_int m) /. float_of_int m
              in
              Alcotest.(check bool)
                (Printf.sprintf "k=%d %s in%d: measured %d, predicted %.0f (%.1f%%)"
                   k label i m predicted.(i) (100.0 *. err))
                true (err <= 0.15))
            measured)
        (plan_p_depths cat plan_p query k))
    [ 10; 100 ]

let suites =
  [
    ( "core.score_dist",
      [
        Alcotest.test_case "eq1 uniform" `Quick test_score_dist_eq1_uniform_case;
        Alcotest.test_case "eq1 triangular" `Quick test_score_dist_eq1_triangular;
        Alcotest.test_case "monotone in i" `Quick test_score_dist_monotone_in_i;
        Alcotest.test_case "pdf u2" `Quick test_score_dist_pdf_u2;
        Alcotest.test_case "validation" `Quick test_score_dist_validation;
      ] );
    ( "core.depth_model",
      [
        Alcotest.test_case "theorem 1" `Quick test_any_k_satisfies_theorem1;
        Alcotest.test_case "delta minimised" `Quick test_any_k_minimizes_delta;
        Alcotest.test_case "slab top-k depths" `Quick test_top_k_slab_depths;
        Alcotest.test_case "top-k >= any-k" `Quick test_top_k_dominates_any_k;
        Alcotest.test_case "worst case l=r=1" `Quick test_worst_case_reduces_to_uniform;
        Alcotest.test_case "average case l=r=1" `Quick test_average_case_reduces_to_sqrt2ks;
        Alcotest.test_case "equals average case at card = n" `Quick
          test_equals_average_case;
        Alcotest.test_case "symmetric m-way" `Quick test_symmetric_m_way;
        Alcotest.test_case "average <= worst" `Quick test_average_below_worst;
        Alcotest.test_case "monotone in k" `Quick test_depths_monotone_in_k;
        Alcotest.test_case "selectivity effect" `Quick test_depths_decrease_with_selectivity;
        Alcotest.test_case "clamping" `Quick test_clamping;
        Alcotest.test_case "buffer bound" `Quick test_buffer_bound;
        Alcotest.test_case "validation" `Quick test_depth_validation;
        QCheck_alcotest.to_alcotest prop_theorem1_holds;
        QCheck_alcotest.to_alcotest prop_worst_case_symmetry;
      ] );
    ( "core.cost_model",
      [
        Alcotest.test_case "join cardinality" `Quick test_join_cardinality_estimate;
        Alcotest.test_case "NRJN propagated depth is costed" `Quick
          test_nrjn_propagated_depth_is_costed;
        Alcotest.test_case "scan pages" `Quick test_scan_cost_scales_with_pages;
        Alcotest.test_case "sort plan k-independent" `Quick test_sort_plan_cost_k_independent;
        Alcotest.test_case "rank plan grows with k" `Quick test_rank_plan_cost_grows_with_k;
        Alcotest.test_case "k* crossover" `Quick test_k_star_exists_or_rank_dominates;
        Alcotest.test_case "filter selectivity" `Quick test_filter_selectivity_histogram;
      ] );
    ( "core.propagate",
      [
        Alcotest.test_case "root k" `Quick test_propagate_assigns_root_k;
        Alcotest.test_case "hierarchy k grows" `Quick test_propagate_hierarchy_k_grows_downward;
        Alcotest.test_case "Plan P nodes pair up" `Quick test_plan_p_nodes_pair_up;
        Alcotest.test_case "Fig. 13 depths within 15%" `Quick
          test_fig13_depths_within_15pct;
      ] );
  ]
