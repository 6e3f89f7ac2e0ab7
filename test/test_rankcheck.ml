(* Bounded, fixed-seed slice of the rankcheck differential fuzz harness
   (the open-ended sweep is `make fuzz`). Every seed here is deterministic:
   a failure prints the same replay command the CLI would. *)

open Check

let fail_on f =
  Alcotest.failf "%s" (Format.asprintf "%a" Rankcheck.pp_failure f)

(* The acceptance sweep: 200 consecutive seeds starting at 42, every
   enumerated plan against the oracle, zero divergences. *)
let test_fixed_seed_sweep () =
  let outcome = Rankcheck.run Rankcheck.plain ~seed:42 ~cases:200 () in
  (match outcome.Rankcheck.o_failures with f :: _ -> fail_on f | [] -> ());
  Alcotest.(check int) "cases" 200 outcome.Rankcheck.o_cases;
  Alcotest.(check bool)
    "many plans exercised" true
    (outcome.Rankcheck.o_plans > 1000)

(* Case i of [run ~seed ~cases] must be exactly case 0 of
   [run ~seed:(seed + i) ~cases:1] — that is the whole replay contract. *)
let test_replay_composition () =
  List.iter
    (fun seed ->
      let a = Rankcheck.gen_case seed in
      let b = Rankcheck.gen_case seed in
      Alcotest.(check bool) "gen_case deterministic" true (a = b))
    [ 0; 7; 42; 1647; 99991 ];
  let bulk = Rankcheck.run Rankcheck.plain ~seed:500 ~cases:5 () in
  let singles =
    List.init 5 (fun i ->
        let o = Rankcheck.run Rankcheck.plain ~seed:(500 + i) ~cases:1 () in
        o.Rankcheck.o_plans)
  in
  Alcotest.(check int)
    "plan counts compose" bulk.Rankcheck.o_plans
    (List.fold_left ( + ) 0 singles)

(* The generator must actually cover the hard corners the harness exists
   for: empty relations, three-way joins, tied scores. *)
let test_generator_coverage () =
  let cases = List.init 120 Rankcheck.gen_case in
  let has_empty =
    List.exists
      (fun c ->
        List.exists (fun t -> t.Rankcheck.t_rows = []) c.Rankcheck.c_tables)
      cases
  in
  let has_three_way =
    List.exists (fun c -> List.length c.Rankcheck.c_tables = 3) cases
  in
  let has_ties =
    List.exists
      (fun c ->
        List.exists
          (fun t ->
            let scores = List.map (fun (_, _, s) -> s) t.Rankcheck.t_rows in
            List.length (List.sort_uniq compare scores) < List.length scores)
          c.Rankcheck.c_tables)
      cases
  in
  Alcotest.(check bool) "generates empty relations" true has_empty;
  Alcotest.(check bool) "generates 3-way joins" true has_three_way;
  Alcotest.(check bool) "generates tied scores" true has_ties

(* Captured pre-fix counterexample (shrunk from fuzz seed 79): the INL join
   used to probe the inner table's key index directly, silently dropping
   the filter wrapped around the inner access path. T0's only row fails
   `T0.score >= 0.25`, so the true answer is empty — the unfixed executor
   returned the row anyway. Kept as a hand-built case so it survives any
   future change to the case generator. *)
let inlj_filter_case =
  let open Sqlfront.Ast in
  let col t c = Column { table = Some t; name = c } in
  {
    Rankcheck.c_seed = 79;
    c_tables =
      [
        {
          Rankcheck.t_name = "T0";
          t_key_domain = 2;
          t_dist = Workload.Dist.Uniform { lo = 0.0; hi = 1.0 };
          t_rows = [ (6, 1, 0.0625) ];
        };
        {
          Rankcheck.t_name = "T1";
          t_key_domain = 2;
          t_dist = Workload.Dist.Uniform { lo = 0.0; hi = 1.0 };
          t_rows = [ (1, 1, 0.637583) ];
        };
      ];
    c_query =
      {
        select = [ Star ];
        from = [ "T0"; "T1" ];
        where =
          [
            Compare (Eq, col "T0" "key", col "T1" "key");
            Compare (Ge, col "T0" "score", Number 0.25);
          ];
        rank_between = None;
        rank_dense = false;
        group_by = [];
        order_by =
          Some
            ( Binop
                ( Add,
                  Binop (Mul, Number 0.25, col "T0" "score"),
                  Binop (Mul, Number 0.5, col "T1" "score") ),
              Desc );
        limit = Some 1;
        limit_param = false;
      };
  }

let test_inlj_filter_regression () =
  match Rankcheck.check Rankcheck.plain inlj_filter_case with
  | Ok plans -> Alcotest.(check bool) "plans checked" true (plans > 0)
  | Error (reason, _) -> Alcotest.failf "counterexample regressed: %s" reason

(* Captured pre-fix counterexample shape for the rank-join exhaustion fix
   (fuzz seed 44 family): one relation is empty, so every join result set is
   empty — before the fix, NRJN/HRJN kept polling the live side to
   exhaustion, which the harness reports as an over-read. *)
let empty_input_case =
  let open Sqlfront.Ast in
  let col t c = Column { table = Some t; name = c } in
  let rows n = List.init n (fun i -> (i, i mod 3, 0.125 *. float_of_int (i mod 8))) in
  {
    Rankcheck.c_seed = 44;
    c_tables =
      [
        {
          Rankcheck.t_name = "T0";
          t_key_domain = 3;
          t_dist = Workload.Dist.Uniform { lo = 0.0; hi = 1.0 };
          t_rows = rows 20;
        };
        {
          Rankcheck.t_name = "T1";
          t_key_domain = 3;
          t_dist = Workload.Dist.Uniform { lo = 0.0; hi = 1.0 };
          t_rows = [];
        };
      ];
    c_query =
      {
        select = [ Star ];
        from = [ "T0"; "T1" ];
        where = [ Compare (Eq, col "T0" "key", col "T1" "key") ];
        rank_between = None;
        rank_dense = false;
        group_by = [];
        order_by =
          Some (Binop (Add, col "T0" "score", col "T1" "score"), Desc);
        limit = Some 4;
        limit_param = false;
      };
  }

let test_empty_input_regression () =
  match Rankcheck.check Rankcheck.plain empty_input_case with
  | Ok plans -> Alcotest.(check bool) "plans checked" true (plans > 0)
  | Error (reason, _) -> Alcotest.failf "counterexample regressed: %s" reason

(* Vector-mode slice: every MEMO-retained plan executed tuple-at-a-time
   and batch-at-a-time must be bit identical — rows, scores, order, and
   rank-join depth/emitted counters. The open-ended sweep is
   `rankopt fuzz --vector`. *)
let test_vector_fixed_seed_sweep () =
  let outcome = Rankcheck.run Rankcheck.vector ~seed:0 ~cases:120 () in
  (match outcome.Rankcheck.o_failures with f :: _ -> fail_on f | [] -> ());
  Alcotest.(check int) "cases" 120 outcome.Rankcheck.o_cases;
  Alcotest.(check bool)
    "plan pairs compared" true
    (outcome.Rankcheck.o_plans > 500)

(* Enumeration-mode slice: EXECUTE-then-FETCH prefixes through the query
   service must be tuple-exact (ties, NaN drops and all) against the full
   ranked-list oracle. The open-ended sweep is `rankopt fuzz --enum`. *)
let test_enum_fixed_seed_sweep () =
  let outcome = Rankcheck.run Rankcheck.enum ~seed:0 ~cases:200 () in
  (match outcome.Rankcheck.o_failures with f :: _ -> fail_on f | [] -> ());
  Alcotest.(check int) "cases" 200 outcome.Rankcheck.o_cases;
  Alcotest.(check bool)
    "prefixes checked" true
    (outcome.Rankcheck.o_plans > 100)

(* Enum cases must keep the replay contract and actually exercise the
   corners the mode exists for: exact tied totals and NaN-scored rows. *)
let test_enum_case_coverage () =
  List.iter
    (fun seed ->
      let a = Rankcheck.enum_case seed in
      let b = Rankcheck.enum_case seed in
      Alcotest.(check bool) "enum_case deterministic" true
        (a.Rankcheck.c_seed = b.Rankcheck.c_seed
        && a.Rankcheck.c_query = b.Rankcheck.c_query
        && List.for_all2
             (fun (x : Rankcheck.table_spec) (y : Rankcheck.table_spec) ->
               List.for_all2
                 (fun (i1, k1, s1) (i2, k2, s2) ->
                   i1 = i2 && k1 = k2
                   && (Float.equal s1 s2
                      || (Float.is_nan s1 && Float.is_nan s2)))
                 x.Rankcheck.t_rows y.Rankcheck.t_rows)
             a.Rankcheck.c_tables b.Rankcheck.c_tables))
    [ 0; 3; 42; 512 ];
  let cases = List.init 80 Rankcheck.enum_case in
  let rows c =
    List.concat_map (fun t -> t.Rankcheck.t_rows) c.Rankcheck.c_tables
  in
  let has_nan =
    List.exists
      (fun c -> List.exists (fun (_, _, s) -> Float.is_nan s) (rows c))
      cases
  in
  let on_grid s = Float.is_nan s || Float.equal (Float.round (s *. 8.0) /. 8.0) s in
  Alcotest.(check bool) "injects NaN scores" true has_nan;
  Alcotest.(check bool) "all scores on the exact 1/8 grid" true
    (List.for_all (fun c -> List.for_all (fun (_, _, s) -> on_grid s) (rows c))
       cases)

(* Shrinking preserves failure. We can't ship a live engine bug to shrink,
   so check the mechanics on the generator side: shrinking a passing case
   is the identity (nothing to minimize), and shrunk output of any case
   stays well-formed. *)
let test_rank_fixed_seed_sweep () =
  let outcome = Rankcheck.run Rankcheck.rank ~seed:0 ~cases:50 () in
  (match outcome.Rankcheck.o_failures with f :: _ -> fail_on f | [] -> ());
  Alcotest.(check int) "cases" 50 outcome.Rankcheck.o_cases;
  (* Both physical variants plus the SQL path per case. *)
  Alcotest.(check int) "window executions" 150 outcome.Rankcheck.o_plans

(* Rank cases must exercise the corners the mode exists for: tie blocks
   (1/8-grid scores), NaN rows, residual filters, and windows overshooting
   the table. *)
let test_rank_case_coverage () =
  let cases = List.init 80 Rankcheck.rank_case in
  let has pred = List.exists pred cases in
  let rows c =
    List.concat_map (fun t -> t.Rankcheck.t_rows) c.Rankcheck.c_tables
  in
  Alcotest.(check bool) "single scored table" true
    (List.for_all (fun c -> List.length c.Rankcheck.c_tables = 1) cases);
  Alcotest.(check bool) "every case carries a window" true
    (List.for_all
       (fun c -> c.Rankcheck.c_query.Sqlfront.Ast.rank_between <> None)
       cases);
  Alcotest.(check bool) "some NaN-scored rows" true
    (has (fun c -> List.exists (fun (_, _, s) -> Float.is_nan s) (rows c)));
  Alcotest.(check bool) "some tie blocks" true
    (has (fun c ->
         let scores =
           List.filter_map
             (fun (_, _, s) -> if Float.is_nan s then None else Some s)
             (rows c)
         in
         List.length (List.sort_uniq Float.compare scores)
         < List.length scores));
  Alcotest.(check bool) "some residual filters" true
    (has (fun c -> c.Rankcheck.c_query.Sqlfront.Ast.where <> []));
  Alcotest.(check bool) "some windows overshoot the table" true
    (has (fun c ->
         match c.Rankcheck.c_query.Sqlfront.Ast.rank_between with
         | Some (_, hi) -> hi > List.length (rows c)
         | None -> false))

let test_shrink_wellformed () =
  let case = Rankcheck.gen_case 42 in
  let shrunk = Rankcheck.shrink Rankcheck.plain case in
  Alcotest.(check bool) "passing case untouched" true (case = shrunk)

(* The shared oracles must reject wrong answers. The reference ranked
   list has a three-row tie group (ids 3, 4, 5) straddling k = 4. Every
   oracle a mode answers to is fed hand-built wrong answers; each must be
   refused, while the answers the oracle's contract allows are accepted. *)
let test_oracles_reject_wrong_answers () =
  let row id s = (Relalg.Tuple.make [ Relalg.Value.Int id ], s) in
  let expected =
    [ row 1 0.875; row 2 0.75; row 3 0.5; row 4 0.5; row 5 0.5; row 6 0.25 ]
  in
  let right = [ row 1 0.875; row 2 0.75; row 3 0.5; row 4 0.5 ] in
  let dropped = [ row 1 0.875; row 2 0.75; row 3 0.5 ] in
  let off = [ row 1 (0.875 +. 1e-3); row 2 0.75; row 3 0.5; row 4 0.5 ] in
  let swapped = [ row 1 0.875; row 2 0.75; row 4 0.5; row 3 0.5 ] in
  let other_tie = [ row 1 0.875; row 2 0.75; row 3 0.5; row 5 0.5 ] in
  let outsider = [ row 1 0.875; row 2 0.75; row 3 0.5; row 9 0.5 ] in
  let impostor = [ row 1 0.875; row 9 0.75; row 3 0.5; row 4 0.5 ] in
  let verdict oracle got =
    Result.is_ok (Rankcheck.agree oracle ~k:4 ~expected ~got)
  in
  let kinds = ref [] in
  List.iter
    (fun mode ->
      match Rankcheck.oracle mode with
      | None -> ()
      | Some oracle ->
          let name = Rankcheck.replay mode 0 in
          let expect what want got =
            Alcotest.(check bool) (name ^ ": " ^ what) want (verdict oracle got)
          in
          expect "right answer" true right;
          expect "row dropped" false dropped;
          expect "score off by 1e-3" false off;
          let exact, top_k =
            match oracle with
            | Rankcheck.Scores _ -> (false, false)
            | Rankcheck.Exact -> (true, false)
            | Rankcheck.Top_k -> (false, true)
          in
          kinds := (exact, top_k) :: !kinds;
          (* tie order and tie membership matter only where the contract
             makes them matter *)
          expect "tie group swapped" (not exact) swapped;
          expect "other tie-group member" (not exact) other_tie;
          expect "boundary row outside the tie group" (not (exact || top_k))
            outsider;
          expect "wrong row above the boundary" (not (exact || top_k)) impostor)
    Rankcheck.modes;
  Alcotest.(check bool) "all three oracles in use" true
    (List.for_all
       (fun kind -> List.mem kind !kinds)
       [ (false, false); (true, false); (false, true) ])

(* Each mode's replay command selects that same mode again through the
   flag table; two modes at once, or fewer than two shards, are usage
   errors before any case runs. *)
let test_mode_flags () =
  List.iter
    (fun mode ->
      let cmd = Rankcheck.replay mode 17 in
      let rec selecting = function
        | [] | ("--seed" | "--fuzz-seed") :: _ -> []
        | w :: rest -> w :: selecting rest
      in
      match
        Rankcheck.mode_of_flags (selecting (List.tl (String.split_on_char ' ' cmd)))
      with
      | Ok m -> Alcotest.(check string) cmd cmd (Rankcheck.replay m 17)
      | Error e -> Alcotest.failf "%s: %s" cmd e)
    Rankcheck.modes;
  List.iter
    (fun flags ->
      Alcotest.(check bool)
        (String.concat " " flags)
        true
        (Result.is_error (Rankcheck.mode_of_flags flags)))
    [
      [ "fuzz"; "--vector"; "--enum" ];
      [ "fuzz"; "--rank"; "--server" ];
      [ "fuzz"; "--vector"; "--shard"; "4" ];
      [ "fuzz"; "--shard"; "1" ];
    ]

let suites =
  [
    ( "check.rankcheck",
      [
        Alcotest.test_case "fixed-seed sweep (42..241)" `Slow
          test_fixed_seed_sweep;
        Alcotest.test_case "replay composition" `Quick test_replay_composition;
        Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
        Alcotest.test_case "regression: INLJ drops inner filter" `Quick
          test_inlj_filter_regression;
        Alcotest.test_case "regression: empty-input over-read" `Quick
          test_empty_input_regression;
        Alcotest.test_case "vector-mode sweep (0..119)" `Quick
          test_vector_fixed_seed_sweep;
        Alcotest.test_case "enum-mode sweep (0..199)" `Slow
          test_enum_fixed_seed_sweep;
        Alcotest.test_case "enum-case coverage" `Quick test_enum_case_coverage;
        Alcotest.test_case "rank-mode sweep (0..49)" `Slow
          test_rank_fixed_seed_sweep;
        Alcotest.test_case "rank-case coverage" `Quick test_rank_case_coverage;
        Alcotest.test_case "shrink well-formed" `Quick test_shrink_wellformed;
        Alcotest.test_case "oracles reject wrong answers" `Quick
          test_oracles_reject_wrong_answers;
        Alcotest.test_case "mode flags and replay commands" `Quick
          test_mode_flags;
      ] );
  ]
