(* Structural plan checks through the planlint engine's first-error view
   ([Lint.Engine.check], see lib/lint/) + the enumeration invariant: every
   plan the MEMO retains (for random workloads and both optimizer
   configurations) is structurally well-formed and executable. *)

open Relalg
open Core

let setup ?(seed = 3) () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + i))
           ~name ~n:100 ~key_domain:10 ()))
    [ "A"; "B"; "C" ];
  cat

let ab_cond =
  { Logical.left_table = "A"; left_column = "key"; right_table = "B"; right_column = "key" }

let score t = Expr.col ~relation:t "score"

let contains msg sub =
  let n = String.length sub and m = String.length msg in
  let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
  at 0

(* The check must reject the plan, and the diagnostic it relays must come
   from the expected lint rule. *)
let expect_rule rule cat plan =
  match Lint.Engine.check cat plan with
  | Ok () -> Alcotest.failf "expected a %s failure" rule
  | Error msg ->
      if not (contains msg rule) then
        Alcotest.failf "expected a %s diagnostic, got: %s" rule msg

let test_detects_unknown_table () =
  let cat = setup () in
  expect_rule "PL01-schema" cat (Plan.Table_scan { table = "Nope" })

let test_detects_unknown_index () =
  let cat = setup () in
  expect_rule "PL01-schema" cat
    (Plan.Index_scan { table = "A"; index = "ghost"; key = score "A"; desc = true })

let test_detects_unbound_filter () =
  let cat = setup () in
  expect_rule "PL01-schema" cat
    (Plan.Filter
       { pred = Expr.(Cmp (Ge, col ~relation:"Z" "x", cfloat 0.0));
         input = Plan.Table_scan { table = "A" } })

let test_detects_unsorted_hrjn_input () =
  let cat = setup () in
  expect_rule "PL02-order" cat
    (Plan.Rank_join
       {
         inputs =
           [
             Plan.Table_scan { table = "A" };  (* not sorted! *)
             Plan.Sort
               { order = { Plan.expr = score "B"; direction = Interesting_orders.Desc };
                 input = Plan.Table_scan { table = "B" } };
           ];
         scores = [ score "A"; score "B" ];
         keys = [ ("A", "key"); ("B", "key") ];
       })

let test_detects_missing_rank_scores () =
  let cat = setup () in
  let sorted t =
    Plan.Sort
      { order = { Plan.expr = score t; direction = Interesting_orders.Desc };
        input = Plan.Table_scan { table = t } }
  in
  (* A rank join's scores are not optional; NRJN's outer score is. *)
  expect_rule "PL02-order" cat
    (Plan.Join
       { algo = Plan.Nrjn; cond = ab_cond; left = sorted "A"; right = sorted "B";
         left_score = None; right_score = Some (score "B") })

let test_detects_unsorted_merge_inputs () =
  let cat = setup () in
  expect_rule "PL02-order" cat
    (Plan.Join
       { algo = Plan.Sort_merge; cond = ab_cond;
         left = Plan.Table_scan { table = "A" };
         right = Plan.Table_scan { table = "B" };
         left_score = None; right_score = None })

let test_accepts_valid_plan () =
  let cat = setup () in
  let q =
    Logical.make
      ~relations:
        [ Logical.base ~score:(score "A") "A"; Logical.base ~score:(score "B") "B" ]
      ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
      ~k:5 ()
  in
  let planned = Optimizer.optimize cat q in
  match Lint.Engine.check cat planned.Optimizer.plan with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid plan rejected: %s" msg

let prop_all_memo_plans_wellformed =
  QCheck.Test.make
    ~name:"enumeration invariant: every retained plan is well-formed" ~count:15
    QCheck.(triple (int_range 0 999) (int_range 2 8) bool)
    (fun (seed, domain, rank_aware) ->
      let cat = Storage.Catalog.create () in
      List.iteri
        (fun i name ->
          ignore
            (Workload.Generator.load_scored_table cat
               (Rkutil.Prng.create (seed + i))
               ~name ~n:50 ~key_domain:domain ()))
        [ "A"; "B"; "C" ];
      let q =
        Logical.make
          ~relations:
            (List.map
               (fun t -> Logical.base ~score:(score t) t)
               [ "A"; "B"; "C" ])
          ~joins:
            [ Logical.equijoin ("A", "key") ("B", "key");
              Logical.equijoin ("B", "key") ("C", "key") ]
          ~k:5 ()
      in
      let env = Cost_model.default_env ~k_min:5 cat q in
      let config = { Enumerator.rank_aware; first_rows = rank_aware } in
      let result = Enumerator.run ~config env in
      List.for_all
        (fun key ->
          List.for_all
            (fun sp -> Lint.Engine.check cat sp.Memo.plan = Ok ())
            (Memo.plans result.Enumerator.memo key))
        (Memo.entry_keys result.Enumerator.memo))

let suites =
  [
    ( "core.plan_verify",
      [
        Alcotest.test_case "unknown table" `Quick test_detects_unknown_table;
        Alcotest.test_case "unknown index" `Quick test_detects_unknown_index;
        Alcotest.test_case "unbound filter" `Quick test_detects_unbound_filter;
        Alcotest.test_case "unsorted hrjn input" `Quick test_detects_unsorted_hrjn_input;
        Alcotest.test_case "missing rank scores" `Quick test_detects_missing_rank_scores;
        Alcotest.test_case "unsorted merge inputs" `Quick test_detects_unsorted_merge_inputs;
        Alcotest.test_case "accepts optimizer plan" `Quick test_accepts_valid_plan;
        QCheck_alcotest.to_alcotest prop_all_memo_plans_wellformed;
      ] );
  ]
