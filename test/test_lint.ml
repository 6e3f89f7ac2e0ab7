(* Mutation tests for the planlint rule catalog: for every rule PL01..PL10,
   a deliberately corrupted plan / memo record / planned statement /
   cache entry asserting that exactly that rule fires — plus
   zero-false-positive checks: optimizer output, a fixed slice of the fuzz
   corpus, and the emit-time assertion mode must all lint clean. *)

open Relalg
open Core

let setup ?(seed = 11) () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + i))
           ~name ~n:120 ~key_domain:10 ()))
    [ "A"; "B"; "C" ];
  cat

let score t = Expr.col ~relation:t "score"

let ab_cond =
  { Logical.left_table = "A"; left_column = "key"; right_table = "B"; right_column = "key" }

let ab_query ?filter () =
  Logical.make
    ~relations:
      [ Logical.base ?filter ~score:(score "A") "A";
        Logical.base ~score:(score "B") "B" ]
    ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
    ~k:5 ()

(* The corrupted input must produce at least one diagnostic, and nothing
   from any other rule may fire alongside — rule ownership is part of the
   catalog's contract (diagnosable mutations never cascade). *)
let expect_only rule diags =
  match diags with
  | [] -> Alcotest.failf "expected %s to fire" rule
  | ds ->
      List.iter
        (fun (dg : Lint.Diag.t) ->
          if not (String.equal dg.Lint.Diag.rule rule) then
            Alcotest.failf "expected only %s, got: %s" rule
              (Lint.Diag.to_string dg))
        ds

let expect_clean what diags =
  match Lint.Engine.errors diags with
  | [] -> ()
  | dg :: _ ->
      Alcotest.failf "%s should lint clean, got: %s" what
        (Lint.Diag.to_string dg)

(* PL01: a filter predicate over a column no input provides. *)
let test_mutation_pl01 () =
  let cat = setup () in
  let p =
    Plan.Filter
      { pred = Expr.(Cmp (Ge, col ~relation:"Z" "x", cfloat 0.0));
        input = Plan.Table_scan { table = "A" } }
  in
  expect_only "PL01-schema" (Lint.Engine.lint_plan cat p)

(* PL02: a merge join claims the ascending key order but its inputs arrive
   unsorted. *)
let test_mutation_pl02 () =
  let cat = setup () in
  let p =
    Plan.Join
      { algo = Plan.Sort_merge; cond = ab_cond;
        left = Plan.Table_scan { table = "A" };
        right = Plan.Table_scan { table = "B" };
        left_score = None; right_score = None }
  in
  expect_only "PL02-order" (Lint.Engine.lint_plan cat p)

(* PL03: the stored MEMO pipelining bit contradicts the plan shape (a sort
   is blocking). *)
let test_mutation_pl03 () =
  let cat = setup () in
  let p =
    Plan.Sort
      { order = { Plan.expr = score "A"; direction = Interesting_orders.Desc };
        input = Plan.Table_scan { table = "A" } }
  in
  expect_only "PL03-pipeline"
    (Lint.Rules.pipeline_rule ~stored:true (Lint.Walk.derive cat p))

(* PL04: the query demands a selection on A but the physical plan dropped
   it — the INL-join bug class. *)
let test_mutation_pl04 () =
  let cat = setup () in
  let query = ab_query ~filter:Expr.(Cmp (Ge, score "A", cfloat 0.5)) () in
  let p =
    Plan.Join
      { algo = Plan.Hash; cond = ab_cond;
        left = Plan.Table_scan { table = "A" };
        right = Plan.Table_scan { table = "B" };
        left_score = None; right_score = None }
  in
  expect_only "PL04-filter" (Lint.Rules.filter_rule ~query (Lint.Walk.derive cat p))

(* PL05: a propagation annotation carrying a NaN requirement. *)
let test_mutation_pl05 () =
  let cat = setup () in
  let query = ab_query () in
  let env = Cost_model.default_env ~k_min:5 cat query in
  let p = Plan.Table_scan { table = "A" } in
  let ann = Propagate.run env ~k:5 p in
  let corrupted = { ann with Propagate.required = Float.nan } in
  expect_only "PL05-kprop" (Lint.Rules.check_propagation env ~k:5 corrupted)

(* PL06: a rank join claiming to read 50 tuples from a 10-tuple input. *)
let test_mutation_pl06 () =
  expect_only "PL06-depth"
    (Lint.Rules.check_depths ~path:"plan:root" ~cards:[| 10.0; 10.0 |]
       [| 50.0; 5.0 |])

(* PL06 over three inputs: only input 2 reads past its cardinality. *)
let test_mutation_pl06_third_input () =
  let diags =
    Lint.Rules.check_depths ~path:"plan:root" ~cards:[| 10.0; 10.0; 10.0 |]
      [| 5.0; 10.0; 50.0 |]
  in
  expect_only "PL06-depth" diags;
  Alcotest.(check (list string))
    "names input 2" [ "input 2 depth 50 exceeds input cardinality 10" ]
    (List.map (fun (dg : Lint.Diag.t) -> dg.Lint.Diag.message) diags)

(* PL07: a NaN row estimate, and separately a cost function that decreases
   as output grows. *)
let test_mutation_pl07 () =
  let cat = setup () in
  let query = ab_query () in
  let env = Cost_model.default_env ~k_min:5 cat query in
  let e = Cost_model.estimate env (Plan.Table_scan { table = "A" }) in
  expect_only "PL07-cost"
    (Lint.Rules.check_estimate ~path:"plan:root"
       { e with Cost_model.rows = Float.nan });
  expect_only "PL07-cost"
    (Lint.Rules.check_estimate ~path:"plan:root"
       { e with Cost_model.cost_at = (fun x -> 1000.0 -. x) })

(* PL08: retained property bits that disagree with the plan — a stored
   order claim the plan does not make, and an entry key that is not the
   plan's relation mask. *)
let test_mutation_pl08 () =
  let cat = setup () in
  let query = ab_query () in
  let env = Cost_model.default_env ~k_min:5 cat query in
  let sp = Memo.subplan_of env (Plan.Table_scan { table = "A" }) in
  let corrupted =
    { sp with
      Memo.order =
        Some { Plan.expr = score "A"; direction = Interesting_orders.Desc } }
  in
  expect_only "PL08-memo" (Lint.Rules.subplan_rule env corrupted);
  let mask = Enumerator.relation_mask env [ "A" ] in
  expect_only "PL08-memo" (Lint.Rules.subplan_rule env ~key:(mask lxor 3) sp)

(* PL09: a planned statement whose root Top-k limit was tampered away from
   the query's k. *)
let test_mutation_pl09 () =
  let cat = setup () in
  let planned = Optimizer.optimize cat (ab_query ()) in
  let tampered =
    match planned.Optimizer.plan with
    | Plan.Top_k { k; input } ->
        { planned with Optimizer.plan = Plan.Top_k { k = k + 1; input } }
    | p -> Alcotest.failf "expected a Top-k root, got %s" (Plan.describe p)
  in
  expect_only "PL09-topk" (Lint.Rules.topk_rule tampered)

(* PL10: a cache entry filed under a non-canonical key, with a negative
   stats epoch. *)
let test_mutation_pl10 () =
  let cat = setup () in
  let sql = "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 5" in
  let prepared =
    match Sqlfront.Sql.template_of_sql sql with
    | Error e -> Alcotest.failf "template: %s" e
    | Ok tpl -> (
        match Sqlfront.Sql.instantiate tpl () with
        | Error e -> Alcotest.failf "instantiate: %s" e
        | Ok ast -> (
            match Sqlfront.Sql.prepare_ast cat ast with
            | Error e -> Alcotest.failf "prepare: %s" e
            | Ok p -> p))
  in
  expect_only "PL10-cache"
    (Lint.Rules.cache_entry_rule
       ~key:"select A.id from A order by A.score desc limit ?" ~epoch:(-1)
       prepared)

(* PL12: the stored Enumerate (cursor-resumability) bit flipped either
   way, plus the pure bit checker. *)
let test_mutation_pl12 () =
  let cat = setup () in
  let query = ab_query () in
  let planned = Optimizer.optimize cat query in
  Alcotest.(check bool)
    "ranking join statement is cursor-resumable" true
    planned.Optimizer.enumerable;
  expect_only "PL12-enum"
    (Lint.Rules.enumerate_rule { planned with Optimizer.enumerable = false });
  (* The opposite flip: claiming resumability for a non-ranking plan. *)
  let flat =
    Logical.make
      ~relations:[ Logical.base "A"; Logical.base "B" ]
      ~joins:[ Logical.equijoin ("A", "key") ("B", "key") ]
      ()
  in
  let fplanned = Optimizer.optimize cat flat in
  Alcotest.(check bool)
    "flat join is not resumable" false fplanned.Optimizer.enumerable;
  expect_only "PL12-enum"
    (Lint.Rules.enumerate_rule { fplanned with Optimizer.enumerable = true });
  (* The pure checker: disagreement fires, agreement is silent. *)
  expect_only "PL12-enum"
    (Lint.Rules.check_enumerate_bit ~path:"plan:root" ~query ~recomputed:true
       false);
  Alcotest.(check int)
    "agreement lints clean" 0
    (List.length
       (Lint.Rules.check_enumerate_bit ~path:"plan:root" ~query
          ~recomputed:false false))

(* PL13: a by-rank scan's window and index justification. *)
let test_mutation_pl13 () =
  let cat = setup () in
  let rank ?(lo = 1) ?(hi = 10) index =
    Plan.Rank_index_scan
      { table = "A"; index; score = score "A"; lo; hi; dense = false }
  in
  let lint p = Lint.Rules.rank_rule cat (Lint.Walk.derive cat p) in
  expect_only "PL13-rank" (lint (rank ~lo:0 (Some "A_score")));
  expect_only "PL13-rank" (lint (rank ~lo:8 ~hi:3 None));
  expect_only "PL13-rank" (lint (rank (Some "A_missing")));
  (* A real index on the right table, keyed on A.key instead of the
     claimed score. *)
  expect_only "PL13-rank" (lint (rank (Some "A_key")));
  Alcotest.(check int)
    "counted descent lints clean" 0
    (List.length (lint (rank (Some "A_score"))));
  Alcotest.(check int)
    "sort fallback needs no index" 0
    (List.length (lint (rank None)));
  (* The optimizer's own rank-range output is clean under the full catalog. *)
  let query =
    Logical.make
      ~relations:[ Logical.base ~score:(score "A") "A" ]
      ~joins:[] ~rank_range:(2, 9) ()
  in
  expect_clean "rank-range planned statement"
    (Lint.Engine.lint_planned (Optimizer.optimize cat query))

(* PL14: scatter/gather soundness — shard bounds, merge-order
   justification, distinct shards, remote-only inputs. *)
let test_mutation_pl14 () =
  let cat = setup () in
  let rscan ?(shard = 0) ?(sc = Some (score "A")) ?(k' = Some 5) () =
    Plan.Remote_scan
      {
        shard;
        endpoint = Printf.sprintf "shard%d.sock" shard;
        sql = "SELECT * FROM A ORDER BY A.score DESC LIMIT ?";
        tables = [ "A" ];
        score = sc;
        k_bound = k';
      }
  in
  let gather ?(sc = Some (score "A")) ?(k = Some 5) inputs =
    Plan.Gather_merge { inputs; score = sc; k }
  in
  let lint p = Lint.Rules.shard_rule (Lint.Walk.derive cat p) in
  Alcotest.(check int)
    "two-shard gather lints clean" 0
    (List.length (lint (gather [ rscan (); rscan ~shard:1 () ])));
  (* no shard inputs at all *)
  expect_only "PL14-shard" (lint (gather []));
  (* the same shard merged twice *)
  expect_only "PL14-shard" (lint (gather [ rscan (); rscan () ]));
  (* per-shard bound below the gather's k: a shard can hold all winners *)
  expect_only "PL14-shard" (lint (gather [ rscan ~k':(Some 3) () ]));
  (* bounded gather over an unbounded shard stream *)
  expect_only "PL14-shard" (lint (gather [ rscan ~k':None () ]));
  (* merge order claimed over an unordered shard stream *)
  expect_only "PL14-shard" (lint (gather [ rscan ~sc:None () ]));
  (* shard sorted by a different score than the merge compares on *)
  expect_only "PL14-shard"
    (lint (gather [ rscan ~sc:(Some (score "B")) () ]));
  (* a local (non-remote) input under the gather *)
  expect_only "PL14-shard"
    (lint (gather ~sc:None ~k:None [ Plan.Table_scan { table = "A" } ]))

(* PL15: batched/streaming boundary soundness and the stored Vectorized
   property bit — the pure checkers under hand-corrupted claims, the
   memo-bit flip both ways through the full subplan lint, and clean
   agreement cases. *)
let test_mutation_pl15 () =
  let cat = setup () in
  let path = "plan:root" in
  (* Pure spine checker: a claimed batched region containing a streaming
     sink fires; a clean claim is silent. *)
  expect_only "PL15-vector"
    (Lint.Rules.check_vector_spine ~path ~spine:true ~fused:false
       ~has_rank_join:true);
  expect_only "PL15-vector"
    (Lint.Rules.check_vector_spine ~path ~spine:false ~fused:true
       ~has_rank_join:true);
  Alcotest.(check int)
    "sound batched region lints clean" 0
    (List.length
       (Lint.Rules.check_vector_spine ~path ~spine:true ~fused:false
          ~has_rank_join:false));
  Alcotest.(check int)
    "streaming region may hold rank joins" 0
    (List.length
       (Lint.Rules.check_vector_spine ~path ~spine:false ~fused:false
          ~has_rank_join:true));
  (* Pure bit checker: disagreement fires both ways, agreement is silent. *)
  expect_only "PL15-vector"
    (Lint.Rules.check_vector_bit ~path ~recomputed:true false);
  expect_only "PL15-vector"
    (Lint.Rules.check_vector_bit ~path ~recomputed:false true);
  Alcotest.(check int)
    "bit agreement lints clean" 0
    (List.length (Lint.Rules.check_vector_bit ~path ~recomputed:true true));
  (* The driver with a stored bit, and the memo-bit flip through the full
     subplan lint: a bare scan is batch-executable, so its recorded bit is
     true and flipping it must fire exactly PL15. *)
  let query = ab_query () in
  let env = Cost_model.default_env ~k_min:5 cat query in
  let scan = Plan.Table_scan { table = "A" } in
  let sp = Memo.subplan_of env scan in
  Alcotest.(check bool)
    "scan subplan records the Vectorized bit" true sp.Memo.vectorized;
  expect_only "PL15-vector"
    (Lint.Engine.errors
       (Lint.Engine.lint_subplan env { sp with Memo.vectorized = false }));
  expect_only "PL15-vector"
    (Lint.Rules.vector_rule ~vectorized:false (Lint.Walk.derive cat scan));
  (* A rank join is never batch-executable: claiming so must fire. *)
  let rank_plan =
    Plan.Rank_join
      { inputs =
          [ Plan.Index_scan
              { table = "A"; index = "A_score"; key = score "A"; desc = true };
            Plan.Index_scan
              { table = "B"; index = "B_score"; key = score "B"; desc = true } ];
        scores = [ score "A"; score "B" ];
        keys = [ ("A", "key"); ("B", "key") ] }
  in
  expect_only "PL15-vector"
    (Lint.Rules.vector_rule ~vectorized:true (Lint.Walk.derive cat rank_plan));
  Alcotest.(check int)
    "rank-join plan with an unset bit lints clean" 0
    (List.length
       (Lint.Rules.vector_rule ~vectorized:false
          (Lint.Walk.derive cat rank_plan)))

(* --- zero false positives ------------------------------------------- *)

let test_optimizer_output_clean () =
  let cat = setup () in
  let planned = Optimizer.optimize cat (ab_query ()) in
  expect_clean "optimizer output" (Lint.Engine.lint_planned planned)

let test_cache_entry_clean () =
  let cat = setup () in
  let sql = "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY \
             0.4*A.score + 0.6*B.score DESC LIMIT ?"
  in
  match Sqlfront.Sql.template_of_sql sql with
  | Error e -> Alcotest.failf "template: %s" e
  | Ok tpl -> (
      match Sqlfront.Sql.instantiate tpl ~k:7 () with
      | Error e -> Alcotest.failf "instantiate: %s" e
      | Ok ast -> (
          match Sqlfront.Sql.prepare_ast cat ast with
          | Error e -> Alcotest.failf "prepare: %s" e
          | Ok p ->
              expect_clean "cache entry"
                (Lint.Engine.lint_prepared ~key:tpl.Sqlfront.Sql.tpl_text
                   ~epoch:0 p)))

let test_emit_mode_clean () =
  let cat = setup () in
  Lint.Engine.Emit.reset ();
  Lint.Engine.Emit.enable ();
  let finish () = Lint.Engine.Emit.disable () in
  Fun.protect ~finally:finish (fun () ->
      ignore (Optimizer.optimize cat (ab_query ()));
      Alcotest.(check bool)
        "emit mode linted retained plans" true
        (Lint.Engine.Emit.linted () > 0);
      expect_clean "emit mode" (Lint.Engine.Emit.diagnostics ()))

let test_fuzz_corpus_clean () =
  (* A fixed slice of the differential-fuzz corpus: every MEMO-retained
     plan of every case must lint with zero diagnostics. The open-ended
     sweep is `rankopt lint --fuzz-seed 0 --fuzz-cases 6000`. *)
  let outcome = Check.Rankcheck.run Check.Rankcheck.lint ~seed:7000 ~cases:12 () in
  (match outcome.Check.Rankcheck.o_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "fuzz corpus lint failure: %a" Check.Rankcheck.pp_failure f);
  Alcotest.(check bool) "plans linted" true (outcome.Check.Rankcheck.o_plans > 0)

let test_catalog_complete () =
  let ids = List.map fst Lint.Rules.catalog in
  Alcotest.(check int) "fourteen rules" 14 (List.length ids);
  (* PL11 (exchange placement) was retired with intra-query parallelism;
     the other rules keep their numbers and PL11 is not reused. *)
  Alcotest.(check (list string))
    "rule numbers"
    (List.filter
       (fun n -> n <> "PL11")
       (List.init 15 (fun i -> Printf.sprintf "PL%02d" (i + 1))))
    (List.map (fun id -> String.sub id 0 4) ids);
  Alcotest.(check bool)
    "distinct ids" true
    (List.length (List.sort_uniq String.compare ids) = List.length ids)

(* Diagnostics must round-trip into the machine-readable JSON surface. *)
let test_diag_json () =
  let dg =
    Lint.Diag.make ~rule:"PL02-order" ~hint:"sort \"first\""
      ~path:"plan:root/left" "claims order s(\"A\") it cannot justify"
  in
  let json = Lint.Diag.list_to_json [ dg ] in
  List.iter
    (fun sub ->
      let n = String.length sub and m = String.length json in
      let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "json contains %s" sub) true (at 0))
    [ "\"PL02-order\""; "\"error\""; "plan:root/left"; "\\\"first\\\"" ]

let suites =
  [
    ( "lint.mutations",
      [
        Alcotest.test_case "PL01 unbound predicate" `Quick test_mutation_pl01;
        Alcotest.test_case "PL02 unjustified order" `Quick test_mutation_pl02;
        Alcotest.test_case "PL03 pipeline bit flip" `Quick test_mutation_pl03;
        Alcotest.test_case "PL04 dropped filter" `Quick test_mutation_pl04;
        Alcotest.test_case "PL05 NaN requirement" `Quick test_mutation_pl05;
        Alcotest.test_case "PL06 depth over cardinality" `Quick test_mutation_pl06;
        Alcotest.test_case "PL06 third input over cardinality" `Quick
          test_mutation_pl06_third_input;
        Alcotest.test_case "PL07 corrupt estimate" `Quick test_mutation_pl07;
        Alcotest.test_case "PL08 property-bit drift" `Quick test_mutation_pl08;
        Alcotest.test_case "PL09 tampered Top-k" `Quick test_mutation_pl09;
        Alcotest.test_case "PL10 bad cache entry" `Quick test_mutation_pl10;
        Alcotest.test_case "PL12 Enumerate-bit flip" `Quick test_mutation_pl12;
        Alcotest.test_case "PL13 by-rank justification" `Quick
          test_mutation_pl13;
        Alcotest.test_case "PL14 scatter/gather soundness" `Quick
          test_mutation_pl14;
        Alcotest.test_case "PL15 batched-region soundness" `Quick
          test_mutation_pl15;
      ] );
    ( "lint.clean",
      [
        Alcotest.test_case "optimizer output" `Quick test_optimizer_output_clean;
        Alcotest.test_case "cache entry" `Quick test_cache_entry_clean;
        Alcotest.test_case "emit mode" `Quick test_emit_mode_clean;
        Alcotest.test_case "fuzz corpus slice" `Quick test_fuzz_corpus_clean;
        Alcotest.test_case "catalog is complete" `Quick test_catalog_complete;
        Alcotest.test_case "json rendering" `Quick test_diag_json;
      ] );
  ]
