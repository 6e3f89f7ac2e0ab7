(* HRJN over m > 2 inputs: correctness against the binary pipeline and the
   naive oracle, early-out, and the flat-vs-pipeline depth comparison. *)

open Relalg
open Exec

let score_idx = 2

let scored_stream rel =
  let sorted = Relation.sort_by ~desc:true (Expr.col "score") rel in
  Operator.scored_of_list (Relation.schema rel)
    (List.map
       (fun tu -> (tu, Value.to_float (Tuple.get tu score_idx)))
       (Relation.tuples sorted))

let nary_input rel =
  { Rank_join.stream = scored_stream rel; key = (fun tu -> Tuple.get tu 1) }

let make_relations ?(m = 3) ?(n = 60) ?(domain = 6) ?(seed = 7) () =
  List.init m (fun i ->
      Test_util.scored_relation
        (String.make 1 (Char.chr (Char.code 'A' + i)))
        ~n ~domain ~seed:(seed + i))

let oracle relations k =
  let joined =
    match relations with
    | first :: rest ->
        List.fold_left
          (fun acc r ->
            let acc_schema = Relation.schema acc in
            let a0 = Schema.nth acc_schema 1 in
            let acc_key_rel = Option.get a0.Schema.relation in
            let r_name =
              Option.get (Schema.nth (Relation.schema r) 1).Schema.relation
            in
            Relation.join
              ~on:
                Expr.(
                  col ~relation:acc_key_rel "key" = col ~relation:r_name "key")
              acc r)
          first rest
    | [] -> failwith "no relations"
  in
  let score =
    Expr.weighted_sum
      (List.map
         (fun r ->
           let name = Option.get (Schema.nth (Relation.schema r) 1).Schema.relation in
           (1.0, Expr.col ~relation:name "score"))
         relations)
  in
  Relation.top_k ~score ~k joined

let run_nary relations k =
  let stream, stats =
    Rank_join.hrjn ~combine:( +. ) ~inputs:(List.map nary_input relations) ()
  in
  (Operator.scored_take stream k, stats)

let test_nary_matches_oracle_3way () =
  let rels = make_relations () in
  List.iter
    (fun k ->
      let results, _ = run_nary rels k in
      Test_util.check_score_multiset
        (Printf.sprintf "3-way top-%d" k)
        (List.map snd (oracle rels k))
        (List.map snd results);
      Test_util.check_non_increasing "ordered" (List.map snd results))
    [ 1; 5; 20 ]

let test_nary_matches_oracle_4way () =
  let rels = make_relations ~m:4 ~n:30 ~domain:4 () in
  let results, _ = run_nary rels 6 in
  Test_util.check_score_multiset "4-way top-6"
    (List.map snd (oracle rels 6))
    (List.map snd results)

(* At m = 2 the operator is binary HRJN: it matches the oracle, and the
   result set does not depend on which input comes first. *)
let test_nary_two_inputs_equals_binary () =
  let rels = make_relations ~m:2 ~n:50 ~domain:5 ~seed:21 () in
  let results, _ = run_nary rels 10 in
  Test_util.check_score_multiset "nary(2) = oracle"
    (List.map snd (oracle rels 10))
    (List.map snd results);
  let swapped, _ = run_nary (List.rev rels) 10 in
  Test_util.check_score_multiset "input order" (List.map snd results)
    (List.map snd swapped)

let test_nary_early_out () =
  let rels = make_relations ~m:3 ~n:500 ~domain:3 ~seed:31 () in
  let _, stats = run_nary rels 3 in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "input %d early out" i) true (d < 500))
    (Exec_stats.depths stats)

let test_nary_empty_input () =
  let rels = make_relations ~m:2 () in
  let empty = Relation.create (Test_util.scored_schema "Z") [] in
  let results, _ = run_nary (rels @ [ empty ]) 5 in
  Alcotest.(check int) "no results" 0 (List.length results)

(* One empty input makes the whole join empty: the operator must learn this
   after polling each input once, not drain the live inputs. *)
let test_nary_empty_input_depth () =
  let rels = make_relations ~m:2 ~n:150 () in
  let empty = Relation.create (Test_util.scored_schema "Z") [] in
  let results, stats = run_nary (rels @ [ empty ]) 5 in
  Alcotest.(check int) "no results" 0 (List.length results);
  for i = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "input %d depth O(1)" i)
      true
      (Exec_stats.depth stats i <= 2)
  done

let test_nary_rejects_single_input () =
  let rels = make_relations ~m:1 () in
  Alcotest.check_raises "arity"
    (Invalid_argument "Rank_join.hrjn: need at least 2 inputs")
    (fun () ->
      ignore (Rank_join.hrjn ~combine:( +. ) ~inputs:(List.map nary_input rels) ()))

let test_adaptive_matches_oracle () =
  let rels = make_relations ~m:3 ~n:80 ~domain:5 ~seed:53 () in
  List.iter
    (fun k ->
      let stream, _ =
        Rank_join.hrjn ~polling:Rank_join.Adaptive ~combine:( +. )
          ~inputs:(List.map nary_input rels) ()
      in
      let results = Operator.scored_take stream k in
      Test_util.check_score_multiset
        (Printf.sprintf "adaptive 3-way top-%d" k)
        (List.map snd (oracle rels k))
        (List.map snd results);
      Test_util.check_non_increasing "ordered" (List.map snd results))
    [ 1; 4; 15 ]

(* The threshold term of input i is [combine] folded left with last_i in
   place of top_i. Here (0.05 + 0.2) + 0.0 = 0.25 exactly, so the buffered
   0.25 result is final once B has read 0.15; a bound computed as
   sum_tops - top_i + last_i rounds to 0.25000000000000006 and reads on. *)
let test_exact_threshold () =
  let input name rows =
    {
      Rank_join.stream =
        Operator.scored_of_list (Test_util.scored_schema name)
          (List.mapi
             (fun i (key, s) ->
               ([| Value.Int i; Value.Int key; Value.Float s |], s))
             rows);
      key = (fun tu -> Tuple.get tu 1);
    }
  in
  let stream, stats =
    Rank_join.hrjn ~combine:( +. )
      ~inputs:
        [
          input "A" [ (1, 0.1); (2, 0.05); (3, 0.0); (4, 0.0) ];
          input "B" [ (2, 0.2); (4, 0.15); (5, 0.1); (6, 0.05) ];
          input "C" [ (2, 0.0) ];
        ]
      ()
  in
  match Operator.scored_take stream 1 with
  | [ (_, s) ] ->
      Alcotest.(check (float 0.0)) "score" 0.25 s;
      Alcotest.(check (array int)) "depths" [| 2; 2; 1 |] (Exec_stats.depths stats)
  | _ -> Alcotest.fail "expected one result"

let test_nary_flat_vs_pipeline_depths () =
  (* The flat operator's total consumption should not exceed the binary
     pipeline's by much (and is typically lower: no intermediate k
     inflation). We assert it stays within 2x as a sanity envelope. *)
  let rels = make_relations ~m:3 ~n:400 ~domain:40 ~seed:41 () in
  let _, nstats = run_nary rels 10 in
  let nary_total = Array.fold_left ( + ) 0 (Exec_stats.depths nstats) in
  match rels with
  | [ ra; rb; rc ] ->
      let input r = { Rank_join.stream = scored_stream r; key = (fun tu -> Tuple.get tu 1) } in
      let child, child_stats = Rank_join.hrjn ~combine:( +. ) ~inputs:[ input ra; input rb ] () in
      let top, top_stats =
        Rank_join.hrjn ~combine:( +. )
          ~inputs:
            [
              {
                Rank_join.stream = child;
                key =
                  (let schema = child.Operator.s_schema in
                   let idx = Schema.index_of_exn schema ~relation:"A" "key" in
                   fun tu -> Tuple.get tu idx);
              };
              input rc;
            ]
          ()
      in
      ignore (Operator.scored_take top 10);
      let pipeline_total =
        (Exec_stats.left_depth child_stats) + (Exec_stats.right_depth child_stats)
        + (Exec_stats.right_depth top_stats)
      in
      Alcotest.(check bool)
        (Printf.sprintf "flat %d vs pipeline %d" nary_total pipeline_total)
        true
        (nary_total <= 2 * pipeline_total)
  | _ -> Alcotest.fail "expected three relations"

let prop_nary_equals_oracle =
  QCheck.Test.make ~name:"nary hrjn: top-k = oracle (random)" ~count:40
    QCheck.(
      triple (int_range 0 9999) (pair (int_range 2 30) (int_range 1 6))
        (int_range 1 12))
    (fun (seed, (n, domain), k) ->
      let rels = make_relations ~m:3 ~n ~domain ~seed () in
      let results, _ = run_nary rels k in
      let e = Test_util.score_multiset (List.map snd (oracle rels k)) in
      let a = Test_util.score_multiset (List.map snd results) in
      List.length e = List.length a
      && List.for_all2 (fun x y -> Test_util.floats_close ~eps:1e-7 x y) e a)

(* --- the threshold polling rule ([Adaptive]) --- *)

(* Random inputs for the polling properties: scores on a 1/8 grid (ties),
   about one key in ten NULL and one score in 25 NaN, each stream in
   descending [Float.compare] order (NaN last); input [empty], if any,
   has no rows. *)
let polling_case g ~m ~n ~domain ~empty =
  Array.init m (fun i ->
      if i = empty then []
      else
        List.init (1 + Rkutil.Prng.int g n) (fun id ->
            let key =
              if Rkutil.Prng.int g 10 = 0 then Value.Null
              else Value.Int (Rkutil.Prng.int g domain)
            in
            let s =
              if Rkutil.Prng.int g 25 = 0 then nan
              else float_of_int (Rkutil.Prng.int g 9) /. 8.0
            in
            ([| Value.Int id; key; Value.Float s |], s))
        |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a))

(* Input [i] over [rows]; every pull is logged to [log] (newest first) as
   the input and the score it returned, [None] at exhaustion. *)
let logged_input log i rows =
  let s =
    Operator.scored_of_list
      (Test_util.scored_schema (String.make 1 (Char.chr (Char.code 'A' + i))))
      rows
  in
  {
    Rank_join.stream =
      {
        s with
        Operator.s_next =
          (fun () ->
            let r = s.Operator.s_next () in
            log := (i, Option.map snd r) :: !log;
            r);
      };
    key = (fun tu -> Tuple.get tu 1);
  }

(* Every join result's score by brute force, folded left in input order as
   the operator folds it; the best [k] by [Float.compare] (NaN lowest). *)
let brute_top_k case k =
  let m = Array.length case in
  let out = ref [] in
  let rec go j key acc =
    if j = m then out := acc :: !out
    else
      List.iter
        (fun (tu, s) ->
          let kx = Tuple.get tu 1 in
          if
            Join_key.joins kx
            && match key with None -> true | Some k0 -> Value.equal k0 kx
          then go (j + 1) (Some kx) (if j = 0 then s else acc +. s))
        case.(j)
  in
  go 0 None 0.0;
  List.filteri (fun i _ -> i < k) (List.sort (fun a b -> Float.compare b a) !out)

let run_logged ~polling case k =
  let log = ref [] in
  let stream, stats =
    Rank_join.hrjn ~polling ~combine:( +. )
      ~inputs:(Array.to_list (Array.mapi (logged_input log) case))
      ()
  in
  stream.Operator.s_open ();
  let results = List.map snd (Operator.scored_take stream k) in
  (results, List.rev !log, stats)

let gen_polling_case =
  QCheck.make
    ~print:(fun (seed, m, k) -> Printf.sprintf "seed=%d m=%d k=%d" seed m k)
    QCheck.Gen.(triple (int_range 0 99_999) (int_range 3 4) (int_range 1 15))

let polling_case_of (seed, m, _) =
  let g = Rkutil.Prng.create seed in
  let n = if m = 3 then 30 else 16 in
  let empty = if Rkutil.Prng.int g 10 = 0 then Rkutil.Prng.int g m else -1 in
  polling_case g ~m ~n ~domain:(2 + Rkutil.Prng.int g 5) ~empty

(* (a) Same answers as the brute-force join, in non-increasing order. *)
let prop_threshold_polling_oracle =
  QCheck.Test.make ~name:"threshold polling: top-k = oracle (ties, NULL, NaN)"
    ~count:300 gen_polling_case (fun ((_, _, k) as params) ->
      let case = polling_case_of params in
      let results, _, _ = run_logged ~polling:Rank_join.Adaptive case k in
      let sorted l = List.sort Float.compare l in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> Float.compare a b >= 0 && non_increasing rest
        | _ -> true
      in
      List.equal
        (fun a b -> Float.compare a b = 0)
        (sorted (brute_top_k case k))
        (sorted results)
      && non_increasing results)

(* (b) Replaying the pull log, each pull goes to the first live input that
   has produced nothing, or else to the live input whose threshold term
   (the left fold with last_i in place of top_i) is largest: a NaN term
   first, then the lowest index among the equal maxima. *)
let prop_threshold_polling_order =
  QCheck.Test.make ~name:"threshold polling: pull order" ~count:300
    gen_polling_case (fun ((_, m, k) as params) ->
      let case = polling_case_of params in
      let _, pulls, _ = run_logged ~polling:Rank_join.Adaptive case k in
      let top = Array.make m nan and last = Array.make m nan in
      let started = Array.make m false and finished = Array.make m false in
      let live i = not finished.(i) in
      let term i =
        let part j = if j = i then last.(j) else top.(j) in
        let acc = ref (part 0) in
        for j = 1 to m - 1 do
          acc := !acc +. part j
        done;
        !acc
      in
      let expected () =
        let ids = List.init m Fun.id in
        match List.find_opt (fun i -> live i && not started.(i)) ids with
        | Some i -> i
        | None -> (
            let terms = List.filter_map (fun i -> if live i then Some (i, term i) else None) ids in
            match List.find_opt (fun (_, t) -> Float.is_nan t) terms with
            | Some (i, _) -> i
            | None ->
                let hi = List.fold_left (fun a (_, t) -> Float.max a t) neg_infinity terms in
                fst (List.find (fun (_, t) -> t = hi) terms))
      in
      List.iteri
        (fun n (i, r) ->
          let e = expected () in
          if i <> e then
            QCheck.Test.fail_reportf "pull %d went to input %d, expected %d" n i e;
          match r with
          | None -> finished.(i) <- true
          | Some s ->
              if not started.(i) then begin
                top.(i) <- s;
                started.(i) <- true
              end;
              last.(i) <- s)
        pulls;
      true)

(* (c) Skewed weights (72, 3, 85): the steep inputs stop early, the flat
   one reads no deeper than round-robin reads it. *)
let test_threshold_polling_skewed () =
  let rels = make_relations ~m:3 ~n:3000 ~domain:1500 ~seed:61 () in
  let case =
    Array.of_list
      (List.map2
         (fun w rel ->
           List.map
             (fun (tu, s) -> (tu, w *. s))
             (Operator.scored_to_list (scored_stream rel)))
         [ 72.0; 3.0; 85.0 ] rels)
  in
  let run polling =
    let results, _, stats = run_logged ~polling case 10 in
    (results, Exec_stats.depths stats)
  in
  let alt, alt_depths = run Rank_join.Alternate in
  let thr, thr_depths = run Rank_join.Adaptive in
  Alcotest.(check (list (float 0.0))) "same answers" alt thr;
  let total = Array.fold_left ( + ) 0 in
  Alcotest.(check bool)
    (Printf.sprintf "total depth %d < %d" (total thr_depths) (total alt_depths))
    true
    (total thr_depths < total alt_depths);
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "input %d: %d <= %d" i d alt_depths.(i))
        true (d <= alt_depths.(i)))
    thr_depths

let suites =
  [
    ( "exec.rank_join_nary",
      [
        Alcotest.test_case "3-way oracle" `Quick test_nary_matches_oracle_3way;
        Alcotest.test_case "4-way oracle" `Quick test_nary_matches_oracle_4way;
        Alcotest.test_case "nary(2) = binary" `Quick test_nary_two_inputs_equals_binary;
        Alcotest.test_case "early out" `Quick test_nary_early_out;
        Alcotest.test_case "empty input" `Quick test_nary_empty_input;
        Alcotest.test_case "empty input depth" `Quick test_nary_empty_input_depth;
        Alcotest.test_case "arity check" `Quick test_nary_rejects_single_input;
        Alcotest.test_case "flat vs pipeline depths" `Quick test_nary_flat_vs_pipeline_depths;
        Alcotest.test_case "adaptive 3-way oracle" `Quick test_adaptive_matches_oracle;
        Alcotest.test_case "exact threshold" `Quick test_exact_threshold;
        QCheck_alcotest.to_alcotest prop_nary_equals_oracle;
        QCheck_alcotest.to_alcotest prop_threshold_polling_oracle;
        QCheck_alcotest.to_alcotest prop_threshold_polling_order;
        Alcotest.test_case "threshold polling: skewed weights" `Quick
          test_threshold_polling_skewed;
      ] );
  ]

(* --- optimizer integration: HRJN* plans --- *)

let star_catalog ?(n = 2000) ?(domain = 200) ?(seed = 71) () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + i))
           ~name ~n ~key_domain:domain ()))
    [ "A"; "B"; "C" ];
  cat

let star_query ?(k = 10) () =
  Core.Logical.make
    ~relations:
      (List.map
         (fun t -> Core.Logical.base ~score:(Expr.col ~relation:t "score") t)
         [ "A"; "B"; "C" ])
    ~joins:
      [
        Core.Logical.equijoin ("A", "key") ("B", "key");
        Core.Logical.equijoin ("B", "key") ("C", "key");
      ]
    ~k ()

let rec plan_has_nary = function
  | Core.Plan.Rank_join { inputs; _ } ->
      List.length inputs > 2 || List.exists plan_has_nary inputs
  | Core.Plan.Table_scan _ | Core.Plan.Index_scan _ | Core.Plan.Rank_index_scan _
  | Core.Plan.Remote_scan _ ->
      false
  | Core.Plan.Gather_merge { inputs; _ } -> List.exists plan_has_nary inputs
  | Core.Plan.Filter { input; _ }
  | Core.Plan.Sort { input; _ }
  | Core.Plan.Top_k { input; _ } ->
      plan_has_nary input
  | Core.Plan.Join { left; right; _ } -> plan_has_nary left || plan_has_nary right
  | Core.Plan.Any_k { inputs; _ } -> List.exists plan_has_nary inputs

let test_enumerator_generates_nary () =
  let cat = star_catalog () in
  let q = star_query () in
  let env = Core.Cost_model.default_env ~k_min:10 cat q in
  let result = Core.Enumerator.run env in
  let full = Core.Enumerator.relation_mask env [ "A"; "B"; "C" ] in
  Alcotest.(check bool) "an HRJN* plan is retained" true
    (List.exists
       (fun sp -> plan_has_nary sp.Core.Memo.plan)
       (Core.Memo.plans result.Core.Enumerator.memo full));
  (* And on this selective star workload it should actually win. *)
  match result.Core.Enumerator.best with
  | Some sp -> Alcotest.(check bool) "chosen" true (plan_has_nary sp.Core.Memo.plan)
  | None -> Alcotest.fail "no plan chosen"

let test_nary_plan_executes_correctly () =
  let cat = star_catalog ~n:300 ~domain:12 () in
  let q = star_query ~k:8 () in
  let env = Core.Cost_model.default_env ~k_min:8 cat q in
  let result = Core.Enumerator.run env in
  let full = Core.Enumerator.relation_mask env [ "A"; "B"; "C" ] in
  match
    List.find_opt
      (fun sp -> plan_has_nary sp.Core.Memo.plan)
      (Core.Memo.plans result.Core.Enumerator.memo full)
  with
  | None -> Alcotest.fail "no HRJN* plan retained"
  | Some sp ->
      (* It must verify and execute to the oracle's answers. *)
      (match
         Lint.Engine.errors (Lint.Engine.lint_plan cat sp.Core.Memo.plan)
       with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "HRJN* plan ill-formed: %s" (Lint.Diag.to_string d));
      let plan = Core.Plan.Top_k { k = 8; input = sp.Core.Memo.plan } in
      let run = Core.Executor.run cat plan in
      let rel name =
        let info = Storage.Catalog.table cat name in
        Relation.create info.Storage.Catalog.tb_schema
          (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)
      in
      let joined =
        Relation.join
          ~on:Expr.(col ~relation:"B" "key" = col ~relation:"C" "key")
          (Relation.join
             ~on:Expr.(col ~relation:"A" "key" = col ~relation:"B" "key")
             (rel "A") (rel "B"))
          (rel "C")
      in
      let score =
        Expr.weighted_sum
          (List.map (fun t -> (1.0, Expr.col ~relation:t "score")) [ "A"; "B"; "C" ])
      in
      let oracle = Relation.top_k ~score ~k:8 joined in
      Test_util.check_score_multiset "HRJN* = oracle" (List.map snd oracle)
        (List.map snd run.Core.Executor.rows);
      Alcotest.(check int) "instrumented" 1 (List.length run.Core.Executor.nary_nodes)

let test_nary_not_generated_for_chain_keys () =
  (* Distinct join columns: no shared key, no HRJN* candidate. *)
  let cat = Storage.Catalog.create () in
  let prng = Rkutil.Prng.create 81 in
  let schema =
    Schema.of_columns
      [ Schema.column "k1" Value.Tint; Schema.column "k2" Value.Tint;
        Schema.column "score" Value.Tfloat ]
  in
  List.iter
    (fun name ->
      let tuples =
        List.init 100 (fun _ ->
            [| Value.Int (Rkutil.Prng.int prng 10); Value.Int (Rkutil.Prng.int prng 10);
               Value.Float (Rkutil.Prng.uniform prng) |])
      in
      ignore (Storage.Catalog.create_table cat name schema tuples))
    [ "A"; "B"; "C" ];
  let q =
    Core.Logical.make
      ~relations:
        (List.map
           (fun t -> Core.Logical.base ~score:(Expr.col ~relation:t "score") t)
           [ "A"; "B"; "C" ])
      ~joins:
        [
          Core.Logical.equijoin ("A", "k1") ("B", "k2");
          Core.Logical.equijoin ("B", "k1") ("C", "k2");
        ]
      ~k:5 ()
  in
  let env = Core.Cost_model.default_env ~k_min:5 cat q in
  let result = Core.Enumerator.run env in
  let full = Core.Enumerator.relation_mask env [ "A"; "B"; "C" ] in
  Alcotest.(check bool) "no HRJN* plans" false
    (List.exists
       (fun sp -> plan_has_nary sp.Core.Memo.plan)
       (Core.Memo.plans result.Core.Enumerator.memo full))

let test_nary_depth_formula () =
  let depths m ~k ~s =
    Core.Depth_model.threshold_depths ~k ~s
      (Array.make m { Core.Depth_model.density = 1e9; fan = 1; card = 1e9 })
  in
  Test_util.check_floats_close ~eps:1e-9 "m=2 reduces to sqrt(2k/s)"
    (sqrt (2.0 *. 50.0 /. 0.01))
    (depths 2 ~k:50.0 ~s:0.01).(1);
  Array.iter
    (Test_util.check_floats_close ~eps:1e-9 "m=3 closed form"
       ((6.0 *. 10.0 /. (0.01 ** 2.0)) ** (1.0 /. 3.0)))
    (depths 3 ~k:10.0 ~s:0.01);
  Alcotest.check_raises "m=1 rejected"
    (Invalid_argument "Depth_model.threshold_depths: fewer than 2 inputs")
    (fun () -> ignore (depths 1 ~k:5.0 ~s:0.5))

(* EXPLAIN ANALYZE predicts a depth for every input of HRJN*: the
   threshold-polling stop at the node's k over inputs of their estimated
   rows, each clamped to its input. *)
let test_nary_explain_predicts_every_input () =
  let cat = star_catalog () in
  let planned = Core.Optimizer.optimize cat (star_query ()) in
  let env = planned.Core.Optimizer.env in
  let inputs =
    match planned.Core.Optimizer.plan with
    | Core.Plan.Top_k { input = Core.Plan.Rank_join { inputs; _ }; _ }
      when List.length inputs = 3 ->
        inputs
    | p -> Alcotest.failf "expected Top-k over HRJN*, got %s" (Core.Plan.describe p)
  in
  let s =
    Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0
      (Storage.Catalog.estimate_join_selectivity cat ~left:("A", "key")
         ~right:("B", "key"))
  in
  let expected =
    Array.to_list
      (Core.Depth_model.threshold_depths ~k:10.0 ~s
         (Array.of_list
            (List.map
               (fun i ->
                 let rows = (Core.Cost_model.estimate env i).Core.Cost_model.rows in
                 { Core.Depth_model.density = rows; fan = 1; card = rows })
               inputs)))
  in
  let text, _ = Core.Optimizer.execute_analyzed cat planned in
  let lines = String.split_on_char '\n' text in
  let rec depths_line = function
    | l :: next :: _ when String.starts_with ~prefix:"HRJN*[3]" (String.trim l) ->
        String.trim next
    | _ :: rest -> depths_line rest
    | [] -> Alcotest.failf "no HRJN*[3] node in:\n%s" text
  in
  let cells =
    match String.split_on_char ':' (depths_line lines) with
    | [ "depths"; cells ] -> String.split_on_char ',' cells
    | _ -> Alcotest.failf "no depths line under HRJN*[3] in:\n%s" text
  in
  Alcotest.(check int) "one cell per input" 3 (List.length cells);
  List.iteri
    (fun i (cell, e) ->
      let pred = Printf.sprintf "(predicted %.1f)" e in
      Alcotest.(check bool)
        (Printf.sprintf "in%d: %s has %s" i cell pred)
        true
        (String.ends_with ~suffix:pred (String.trim cell)))
    (List.combine cells expected);
  let propagation =
    Format.asprintf "%a" Core.Propagate.pp
      (Core.Propagate.run env ~k:10 planned.Core.Optimizer.plan)
  in
  Alcotest.(check bool) "depth propagation prints d2" true
    (List.exists
       (fun l -> String.trim l |> String.starts_with ~prefix:"HRJN* (3-way)"
                 && List.length (String.split_on_char '=' l) = 5)
       (String.split_on_char '\n' propagation))

let optimizer_suite =
  ( "core.nary_integration",
    [
      Alcotest.test_case "enumerator generates" `Quick test_enumerator_generates_nary;
      Alcotest.test_case "HRJN* plan executes" `Quick test_nary_plan_executes_correctly;
      Alcotest.test_case "chain keys: no HRJN*" `Quick test_nary_not_generated_for_chain_keys;
      Alcotest.test_case "depth formula" `Quick test_nary_depth_formula;
      Alcotest.test_case "EXPLAIN ANALYZE predicts every input" `Quick
        test_nary_explain_predicts_every_input;
    ] )
