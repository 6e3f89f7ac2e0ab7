(* Any-k ranked-enumeration operator tests: full-stream order against the
   join-then-sort oracle, resumption past an initial prefix, exhaustion
   behaviour under repeated pulls, NaN pruning, NULL keys, cooperative
   ticks, and a seeded differential property over path and star trees. *)

open Relalg
open Exec

let key_of tu = Tuple.get tu 1
let score_of tu = Value.to_float (Tuple.get tu 2)

let input ?(weight = 1.0) rel =
  {
    Any_k.i_op = Operator.of_list (Relation.schema rel) (Relation.tuples rel);
    i_score = (fun tu -> weight *. score_of tu);
  }

let concat_schema rels =
  List.fold_left
    (fun acc r -> Schema.concat acc (Relation.schema r))
    (Relation.schema (List.hd rels))
    (List.tl rels)

(* Input 0 is the root; keys entry i-1 binds input i to its parent:
   the previous input for a path, input 0 for a star. *)
let mk_stream ?tick ?(weights = []) shape rels =
  let weight i =
    match List.nth_opt weights i with Some w -> w | None -> 1.0
  in
  let inputs = List.mapi (fun i r -> input ~weight:(weight i) r) rels in
  let keys =
    List.init
      (List.length rels - 1)
      (fun i ->
        let parent = match shape with `Path -> i | `Star -> 0 in
        (parent, key_of, key_of))
  in
  Any_k.enumerate ?tick ~schema:(concat_schema rels) ~inputs ~keys ()

let jeq a b = Expr.(col ~relation:a "key" = col ~relation:b "key")

let oracle_full ?(weights = []) shape rels =
  let weight i =
    match List.nth_opt weights i with Some w -> w | None -> 1.0
  in
  let names =
    List.map
      (fun r ->
        match (Schema.columns (Relation.schema r) : Schema.column list) with
        | { relation = Some n; _ } :: _ -> n
        | _ -> assert false)
      rels
  in
  let joined =
    match rels, names with
    | [ a; b ], [ na; nb ] -> Relation.join ~on:(jeq na nb) a b
    | [ a; b; c ], [ na; nb; nc ] ->
        let anchor = match shape with `Path -> nb | `Star -> na in
        Relation.join ~on:(jeq anchor nc) (Relation.join ~on:(jeq na nb) a b) c
    | _ -> assert false
  in
  let score =
    Expr.weighted_sum
      (List.mapi (fun i n -> (weight i, Expr.col ~relation:n "score")) names)
  in
  Relation.top_k ~score ~k:max_int joined

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

let check_against_oracle msg stream oracle =
  let got = Operator.scored_to_list stream in
  Test_util.check_score_multiset msg (List.map snd oracle) (List.map snd got);
  Test_util.check_non_increasing (msg ^ " ordered") (List.map snd got)

let test_path_two () =
  let a = Test_util.scored_relation "A" ~n:30 ~domain:4 ~seed:3 in
  let b = Test_util.scored_relation "B" ~n:25 ~domain:4 ~seed:4 in
  check_against_oracle "anyk path-2" (mk_stream `Path [ a; b ])
    (oracle_full `Path [ a; b ])

let test_path_three () =
  let a = Test_util.scored_relation "A" ~n:18 ~domain:3 ~seed:5 in
  let b = Test_util.scored_relation "B" ~n:16 ~domain:3 ~seed:6 in
  let c = Test_util.scored_relation "C" ~n:14 ~domain:3 ~seed:7 in
  check_against_oracle "anyk path-3" (mk_stream `Path [ a; b; c ])
    (oracle_full `Path [ a; b; c ])

let test_star_three () =
  let a = Test_util.scored_relation "A" ~n:18 ~domain:3 ~seed:8 in
  let b = Test_util.scored_relation "B" ~n:16 ~domain:3 ~seed:9 in
  let c = Test_util.scored_relation "C" ~n:14 ~domain:3 ~seed:10 in
  check_against_oracle "anyk star-3" (mk_stream `Star [ a; b; c ])
    (oracle_full `Star [ a; b; c ])

let test_weighted () =
  let a = Test_util.scored_relation "A" ~n:22 ~domain:4 ~seed:11 in
  let b = Test_util.scored_relation "B" ~n:22 ~domain:4 ~seed:12 in
  let weights = [ 0.25; 0.75 ] in
  check_against_oracle "anyk weighted"
    (mk_stream ~weights `Path [ a; b ])
    (oracle_full ~weights `Path [ a; b ])

(* The cursor contract: a stream paused after k answers resumes exactly
   where it stopped — the concatenation equals one uninterrupted drain. *)
let test_resumes_midway () =
  let a = Test_util.scored_relation "A" ~n:25 ~domain:3 ~seed:13 in
  let b = Test_util.scored_relation "B" ~n:25 ~domain:3 ~seed:14 in
  let full =
    let s = mk_stream `Path [ a; b ] in
    s.Operator.s_open ();
    let r = drain_via_next s in
    s.Operator.s_close ();
    r
  in
  let s = mk_stream `Path [ a; b ] in
  s.Operator.s_open ();
  let first = take_via_next s 7 in
  let rest = drain_via_next s in
  s.Operator.s_close ();
  Alcotest.(check bool) "resumed = uninterrupted" true
    (List.equal
       (fun (t1, s1) (t2, s2) -> Tuple.equal t1 t2 && Float.equal s1 s2)
       full (first @ rest))

let test_exhausted_stays_exhausted () =
  let a = Test_util.scored_relation "A" ~n:12 ~domain:2 ~seed:15 in
  let b = Test_util.scored_relation "B" ~n:12 ~domain:2 ~seed:16 in
  let s = mk_stream `Path [ a; b ] in
  s.Operator.s_open ();
  let all = drain_via_next s in
  Alcotest.(check int) "full join size"
    (List.length (oracle_full `Path [ a; b ]))
    (List.length all);
  for _ = 1 to 5 do
    Alcotest.(check bool) "still exhausted" true
      (Option.is_none (s.Operator.s_next ()))
  done;
  s.Operator.s_close ()

let test_nan_pruned () =
  let sch = Test_util.scored_schema "A" in
  let rows =
    [
      [| Value.Int 0; Value.Int 1; Value.Float 0.9 |];
      [| Value.Int 1; Value.Int 1; Value.Float Float.nan |];
      [| Value.Int 2; Value.Int 2; Value.Float 0.4 |];
    ]
  in
  let a = Relation.create sch rows in
  let b = Test_util.scored_relation "B" ~n:10 ~domain:2 ~seed:17 in
  let got = Operator.scored_to_list (mk_stream `Path [ a; b ]) in
  (* Only the two non-NaN A-rows can appear in answers, and no emitted
     total may be NaN. *)
  Alcotest.(check bool) "no NaN totals" true
    (List.for_all (fun (_, s) -> not (Float.is_nan s)) got);
  let clean = Relation.create sch (List.filteri (fun i _ -> i <> 1) rows) in
  Alcotest.(check int) "NaN row contributes nothing"
    (List.length (oracle_full `Path [ clean; b ]))
    (List.length got)

(* The build phase must call [tick] so a deadline can fire mid-build. *)
exception Interrupted_by_test

let test_tick_interrupts_build () =
  let a = Test_util.scored_relation "A" ~n:2000 ~domain:10 ~seed:18 in
  let b = Test_util.scored_relation "B" ~n:2000 ~domain:10 ~seed:19 in
  let calls = ref 0 in
  let tick () =
    incr calls;
    if !calls > 3 then raise Interrupted_by_test
  in
  let s = mk_stream ~tick `Path [ a; b ] in
  Alcotest.check_raises "tick escapes from the build" Interrupted_by_test
    (fun () ->
      s.Operator.s_open ();
      ignore (drain_via_next s));
  Alcotest.(check bool) "tick was polled" true (!calls > 3)

(* A NULL key joins nothing, not even another NULL; Int 3 joins
   Float 3.0. *)
let test_null_keys () =
  let rel name rows = Relation.create (Test_util.scored_schema name) rows in
  let rows =
    [
      [| Value.Int 0; Value.Null; Value.Float 0.9 |];
      [| Value.Int 1; Value.Int 1; Value.Float 0.5 |];
    ]
  in
  let stats = Exec_stats.create 2 in
  let s =
    Any_k.enumerate ~stats ~schema:(concat_schema [ rel "A" rows; rel "B" rows ])
      ~inputs:[ input (rel "A" rows); input (rel "B" rows) ]
      ~keys:[ (0, key_of, key_of) ] ()
  in
  Alcotest.(check (list (float 0.0))) "only 1 = 1 joins" [ 1.0 ]
    (List.map snd (Operator.scored_to_list s));
  Alcotest.(check (array int)) "every tuple drained" [| 2; 2 |]
    (Exec_stats.depths stats);
  Alcotest.(check int) "emitted" 1 (Exec_stats.emitted stats);
  let a = rel "A" [ [| Value.Int 0; Value.Int 3; Value.Float 0.5 |] ] in
  let b = rel "B" [ [| Value.Int 0; Value.Float 3.0; Value.Float 0.25 |] ] in
  Alcotest.(check (list (float 0.0))) "Int 3 joins Float 3.0" [ 0.75 ]
    (List.map snd (Operator.scored_to_list (mk_stream `Path [ a; b ])))

(* ---- Seeded differential property ------------------------------------ *)

(* Rows (id, k1, k2, score): input i >= 1 joins its parent on
   child.k1 = parent.k2, so a path is not one shared key. *)
let wide_schema name =
  Schema.rename_relation
    (Schema.of_columns
       [
         Schema.column "id" Value.Tint;
         Schema.column "k1" Value.Tint;
         Schema.column "k2" Value.Tint;
         Schema.column "score" Value.Tfloat;
       ])
    name

let wscore tu = Value.to_float (Tuple.get tu 3)

(* Scores on a 1/8 grid, so every total is exact and ties are real. Keys
   mix Int k with the equal Float k, with NULLs, NaN scores, empty inputs
   and inputs whose keys join nothing drawn in. *)
let gen_case seed =
  let g = Rkutil.Prng.create seed in
  let m = 2 + Rkutil.Prng.int g 3 in
  let shape = if Rkutil.Prng.bool g then `Path else `Star in
  let domain = m + Rkutil.Prng.int g 4 in
  let nulls = Rkutil.Prng.bool g and nans = Rkutil.Prng.bool g in
  let key ~dangles =
    let k = Rkutil.Prng.int g domain in
    let r = Rkutil.Prng.int g 10 in
    if dangles then Value.Int (domain + k)
    else if nulls && r = 0 then Value.Null
    else if r < 4 then Value.Float (float_of_int k)
    else Value.Int k
  in
  let score () =
    if nans && Rkutil.Prng.int g 12 = 0 then Float.nan
    else float_of_int (Rkutil.Prng.int g 17 - 4) /. 8.0
  in
  let rels =
    Array.init m (fun _ ->
        let n = if Rkutil.Prng.int g 8 = 0 then 0 else Rkutil.Prng.int g 41 in
        let dangles = Rkutil.Prng.int g 10 = 0 in
        List.init n (fun id ->
            let k1 = key ~dangles in
            let k2 = key ~dangles in
            [| Value.Int id; k1; k2; Value.Float (score ()) |]))
  in
  (m, shape, rels)

let parent_of shape i = match shape with `Path -> i - 1 | `Star -> 0

let wide_stream (m, shape, rels) =
  let schemas = Array.init m (fun i -> wide_schema (Printf.sprintf "T%d" i)) in
  Any_k.enumerate
    ~schema:
      (Array.fold_left Schema.concat schemas.(0) (Array.sub schemas 1 (m - 1)))
    ~inputs:
      (List.init m (fun i ->
           {
             Any_k.i_op = Operator.of_list schemas.(i) rels.(i);
             i_score = wscore;
           }))
    ~keys:
      (List.init (m - 1) (fun j ->
           (parent_of shape (j + 1), (fun tu -> Tuple.get tu 2), fun tu ->
             Tuple.get tu 1)))
    ()

(* Join-then-sort: every combination whose keys match under the SQL rule,
   scored by the same left fold from 0.0 in input order; NaN totals have no
   rank and are left out. *)
let wide_oracle (m, shape, rels) =
  let joins a b = Join_key.joins a && Value.equal a b in
  let chosen = Array.make m [||] in
  let out = ref [] in
  let rec go i total =
    if i = m then begin
      if not (Float.is_nan total) then
        out := (Array.concat (Array.to_list chosen), total) :: !out
    end
    else
      List.iter
        (fun tu ->
          let joined =
            i = 0
            || joins (Tuple.get chosen.(parent_of shape i) 2) (Tuple.get tu 1)
          in
          if joined then begin
            chosen.(i) <- tu;
            go (i + 1) (total +. wscore tu)
          end)
        rels.(i)
  in
  go 0 0.0;
  List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) !out

let value_repr = function
  | Value.Null -> "n"
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> Printf.sprintf "f%h" f
  | v -> Value.to_string v

let answer_repr (tu, s) =
  Printf.sprintf "%h|%s" s
    (String.concat "," (Array.to_list (Array.map value_repr tu)))

let same_answers a b =
  List.equal String.equal (List.map answer_repr a) (List.map answer_repr b)

let bits s = Int64.bits_of_float s

let check_case seed =
  let case = gen_case seed in
  let oracle = wide_oracle case in
  let fail what = Alcotest.failf "seed %d: %s" seed what in
  let s = wide_stream case in
  s.Operator.s_open ();
  let full = drain_via_next s in
  if not (List.equal (fun (_, a) (_, b) -> Int64.equal (bits a) (bits b))
            full oracle)
  then
    fail
      (Printf.sprintf "score sequence differs (%d answers, oracle %d)"
         (List.length full) (List.length oracle));
  let sorted l = List.sort String.compare (List.map answer_repr l) in
  if not (List.equal String.equal (sorted full) (sorted oracle)) then
    fail "rows under some score differ";
  for _ = 1 to 3 do
    if Option.is_some (s.Operator.s_next ()) then fail "exhaustion not sticky"
  done;
  s.Operator.s_close ();
  s.Operator.s_open ();
  if not (same_answers full (drain_via_next s)) then fail "reopen differs";
  s.Operator.s_close ();
  let prefix =
    Rkutil.Prng.int (Rkutil.Prng.create (seed + 1)) (List.length full + 1)
  in
  let r = wide_stream case in
  r.Operator.s_open ();
  let first = take_via_next r prefix in
  let rest = drain_via_next r in
  r.Operator.s_close ();
  if not (same_answers full (first @ rest)) then
    fail (Printf.sprintf "resume after %d differs" prefix)

let test_differential () =
  for seed = 0 to 299 do
    check_case seed
  done

(* A group whose head ties with later members, pulled to the end: the
   tail sort must leave slot 0 in place, or a candidate already resting on
   the head would meet it again at slot 1 and another member would go
   missing. *)
let test_head_tie_pulled_deep () =
  let rel name rows = Relation.create (Test_util.scored_schema name) rows in
  let a =
    rel "A"
      (List.init 6 (fun i ->
           let s = 0.5 -. (0.125 *. float_of_int (i mod 3)) in
           [| Value.Int i; Value.Int 1; Value.Float s |]))
  in
  let b =
    rel "B"
      (List.init 9 (fun i ->
           let s = if i < 6 then 0.5 else 0.25 in
           [| Value.Int i; Value.Int 1; Value.Float s |]))
  in
  let got = Operator.scored_to_list (mk_stream `Path [ a; b ]) in
  let oracle = oracle_full `Path [ a; b ] in
  Alcotest.(check int) "every answer once" (List.length oracle)
    (List.length got);
  let ids (tu, _) =
    (Value.to_int (Tuple.get tu 0), Value.to_int (Tuple.get tu 3))
  in
  Alcotest.(check (list (pair int int))) "no pair twice"
    (List.sort_uniq compare (List.map ids got))
    (List.sort compare (List.map ids got));
  Alcotest.(check (list (float 0.0))) "scores"
    (List.map snd oracle) (List.map snd got)

let suites =
  [
    ( "exec.any_k",
      [
        Alcotest.test_case "path-2 matches oracle" `Quick test_path_two;
        Alcotest.test_case "path-3 matches oracle" `Quick test_path_three;
        Alcotest.test_case "star-3 matches oracle" `Quick test_star_three;
        Alcotest.test_case "weighted scores" `Quick test_weighted;
        Alcotest.test_case "resumes midway" `Quick test_resumes_midway;
        Alcotest.test_case "exhaustion is sticky" `Quick
          test_exhausted_stays_exhausted;
        Alcotest.test_case "NaN rows pruned" `Quick test_nan_pruned;
        Alcotest.test_case "tick interrupts build" `Quick
          test_tick_interrupts_build;
        Alcotest.test_case "NULL keys join nothing" `Quick test_null_keys;
        Alcotest.test_case "differential vs oracle (300 seeds)" `Quick
          test_differential;
        Alcotest.test_case "tied head pulled deep" `Quick
          test_head_tie_pulled_deep;
      ] );
  ]
