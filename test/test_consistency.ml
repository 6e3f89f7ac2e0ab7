(* Self-consistency properties across the optimizer stack: the chosen plan
   really is the cheapest retained candidate, annotations mirror plan trees,
   and estimates behave monotonically. *)

open Relalg
open Core

let star_env ?(n = 300) ?(domain = 20) ?(k = 10) ~seed () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + i))
           ~name ~n ~key_domain:domain ()))
    [ "A"; "B"; "C" ];
  let q =
    Logical.make
      ~relations:
        (List.map (fun t -> Logical.base ~score:(Expr.col ~relation:t "score") t)
           [ "A"; "B"; "C" ])
      ~joins:
        [ Logical.equijoin ("A", "key") ("B", "key");
          Logical.equijoin ("B", "key") ("C", "key") ]
      ~k ()
  in
  (cat, q, Cost_model.default_env ~k_min:k cat q)

let prop_best_is_cheapest_retained =
  QCheck.Test.make
    ~name:"optimizer: chosen plan is the cheapest order-satisfying candidate"
    ~count:10
    QCheck.(pair (int_range 0 999) (int_range 5 30))
    (fun (seed, domain) ->
      let _, q, env = star_env ~domain ~seed () in
      let result = Enumerator.run env in
      match result.Enumerator.best, Logical.scoring_expr q with
      | Some best, Some score ->
          let want = { Plan.expr = score; direction = Interesting_orders.Desc } in
          let full = Enumerator.relation_mask env [ "A"; "B"; "C" ] in
          let candidates =
            List.filter
              (fun sp -> Plan.order_satisfies ~have:sp.Memo.order ~want:(Some want))
              (Memo.plans result.Enumerator.memo full)
          in
          candidates <> []
          && List.for_all
               (fun sp ->
                 Memo.decision_cost best
                 <= Memo.decision_cost sp +. 1e-6)
               candidates
      | _ -> false)

let plan_children = function
  | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
  | Plan.Remote_scan _ ->
      []
  | Plan.Gather_merge { inputs; _ } -> inputs
  | Plan.Filter { input; _ } | Plan.Sort { input; _ } | Plan.Top_k { input; _ } ->
      [ input ]
  | Plan.Join { left; right; _ } -> [ left; right ]
  | Plan.Rank_join { inputs; _ } | Plan.Any_k { inputs; _ } -> inputs

let rec annotation_mirrors (ann : Propagate.annotation) plan =
  let children = plan_children plan in
  List.length ann.Propagate.children = List.length children
  && List.for_all2 annotation_mirrors ann.Propagate.children children
  && ann.Propagate.node == plan

let prop_propagate_mirrors_plan =
  QCheck.Test.make ~name:"propagate: annotation mirrors the plan tree"
    ~count:10
    QCheck.(pair (int_range 0 999) (int_range 3 15))
    (fun (seed, k) ->
      let cat, _, env = star_env ~k ~seed () in
      ignore cat;
      let result = Enumerator.run env in
      match result.Enumerator.best with
      | Some sp ->
          let ann = Propagate.run env ~k sp.Memo.plan in
          annotation_mirrors ann sp.Memo.plan
      | None -> false)

let prop_cost_at_monotone =
  QCheck.Test.make ~name:"cost model: cost_at is monotone in x for any plan"
    ~count:10
    QCheck.(int_range 0 999)
    (fun seed ->
      let _, _, env = star_env ~seed () in
      let result = Enumerator.run env in
      let full = Enumerator.relation_mask env [ "A"; "B"; "C" ] in
      List.for_all
        (fun sp ->
          let est = sp.Memo.est in
          let xs = [ 1.0; 5.0; 25.0; 125.0; 625.0 ] in
          let costs = List.map est.Cost_model.cost_at xs in
          let rec non_decreasing = function
            | a :: (b :: _ as rest) -> a <= b +. 1e-6 && non_decreasing rest
            | _ -> true
          in
          non_decreasing costs
          && List.for_all (fun c -> c <= est.Cost_model.total_cost +. 1e-6) costs)
        (Memo.plans result.Enumerator.memo full))

let test_explain_is_complete () =
  let cat, q, _ = star_env ~seed:42 () in
  let planned = Optimizer.optimize cat q in
  let text = Optimizer.explain planned in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has query" true (contains "SELECT");
  Alcotest.(check bool) "has cost" true (contains "Estimated cost");
  Alcotest.(check bool) "has plan counts" true (contains "retained");
  if Plan.has_rank_join planned.Optimizer.plan then
    Alcotest.(check bool) "has depth propagation" true (contains "Depth propagation")

let suites =
  [
    ( "core.consistency",
      [
        QCheck_alcotest.to_alcotest prop_best_is_cheapest_retained;
        QCheck_alcotest.to_alcotest prop_propagate_mirrors_plan;
        QCheck_alcotest.to_alcotest prop_cost_at_monotone;
        Alcotest.test_case "explain completeness" `Quick test_explain_is_complete;
      ] );
  ]
