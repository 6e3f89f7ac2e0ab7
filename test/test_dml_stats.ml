(* Tests for statistics maintenance under DML: the sorted numeric columns
   kept current by INSERT / DELETE / UPDATE must yield exactly the
   statistics a full ANALYZE would, every statement must leave the table
   consistent (Catalog.check), and the predicate scan charges a pinned
   count of I/O. *)

open Relalg
open Storage

(* --- Histogram columns against a direct definition --- *)

(* What [Histogram.build] must agree with, written straight from its
   contract: every value counts, folds over the non-NaN values for
   min/max, a sort for the distinct count. *)
let reference_summary values =
  let numbers = List.filter (fun v -> not (Float.is_nan v)) values in
  ( List.length values,
    List.fold_left Float.min infinity numbers,
    List.fold_left Float.max neg_infinity numbers,
    List.length (List.sort_uniq Float.compare values) )

let summary h =
  ( Histogram.count h,
    Histogram.min_value h,
    Histogram.max_value h,
    Histogram.distinct_estimate h )

(* Bucket counts are observable through [selectivity_le] at each bucket's
   upper edge. *)
let cumulative h =
  if Histogram.bucket_count h = 0 then []
  else begin
    let lo = Histogram.min_value h and hi = Histogram.max_value h in
    let n = Histogram.bucket_count h in
    List.init n (fun b ->
        Histogram.selectivity_le h
          (lo +. ((hi -. lo) *. float_of_int (b + 1) /. float_of_int n)))
  end

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> float_of_int i /. 4.0) (int_range (-20) 20));
        (2, float_range (-1e6) 1e6);
        (1, oneofl [ nan; -0.0; 0.0; infinity; neg_infinity ]);
      ])

let arb_ops =
  QCheck.make
    ~print:QCheck.Print.(list (pair bool float))
    QCheck.Gen.(
      list_size (int_range 0 80)
        (pair (frequency [ (3, return true); (2, return false) ]) gen_value))

(* A random add/remove sequence on a column: after every step the derived
   histogram equals a fresh build over the same multiset. *)
let prop_column_matches_build =
  QCheck.Test.make ~count:300 ~name:"sorted column = build after every add/remove"
    arb_ops (fun ops ->
      let col = Histogram.column ~buckets:8 (Float.Array.of_list []) in
      let live = ref [] in
      List.for_all
        (fun (is_add, v) ->
          (if is_add || !live = [] then begin
             Histogram.add col v;
             live := v :: !live
           end
           else begin
             (* remove an existing value: the one at a position picked by v *)
             let arr = Array.of_list !live in
             let i =
               abs (int_of_float (Float.rem (Float.abs v) 1e6)) mod Array.length arr
             in
             let victim = arr.(i) in
             Histogram.remove col victim;
             live := List.filteri (fun j _ -> j <> i) (Array.to_list arr)
           end);
          let incremental = Histogram.of_column col in
          let fresh = Histogram.build ~buckets:8 !live in
          compare incremental fresh = 0
          && compare (summary fresh) (reference_summary !live) = 0
          && compare (cumulative incremental) (cumulative fresh) = 0)
        ops)

let test_column_ends_and_zeros () =
  (* -0. and +0. compare equal: one distinct value, but min is -0. and max
     +0., as the Float.min / Float.max folds give. *)
  let h = Histogram.build [ 0.0; -0.0; 0.0 ] in
  Alcotest.(check int) "distinct" 1 (Histogram.distinct_estimate h);
  Alcotest.(check bool) "min is -0." true (Float.sign_bit (Histogram.min_value h));
  Alcotest.(check bool) "max is +0." false (Float.sign_bit (Histogram.max_value h));
  (* NaN counts but no comparison selects it: the range and the buckets
     cover the other values. *)
  let h = Histogram.build [ 3.0; nan; 1.0; nan ] in
  Alcotest.(check (float 0.0)) "nan min" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "nan max" 3.0 (Histogram.max_value h);
  Alcotest.(check int) "nan counted" 4 (Histogram.count h);
  Alcotest.(check int) "nan is one distinct value" 3 (Histogram.distinct_estimate h);
  Alcotest.(check (float 0.0)) "nan never selected" 0.5
    (Histogram.selectivity_le h infinity);
  let h = Histogram.build [ nan; nan ] in
  Alcotest.(check (float 0.0)) "all-nan min" infinity (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "all-nan max" neg_infinity (Histogram.max_value h);
  Alcotest.(check (float 0.0)) "all-nan eq" 0.0 (Histogram.selectivity_eq h nan);
  let col = Histogram.column (Float.Array.of_list [ 1.0; 2.0 ]) in
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Histogram.remove: value not in column") (fun () ->
      Histogram.remove col 5.0)

(* --- Differential: incremental stats vs a full re-analyze --- *)

let schema =
  Schema.of_columns
    [
      Schema.column "id" Value.Tint;
      Schema.column "key" Value.Tint;
      Schema.column "score" Value.Tfloat;
      Schema.column "tag" Value.Tstring;
    ]

let initial_rows prng n =
  List.init n (fun i ->
      let key =
        if Rkutil.Prng.int prng 10 = 0 then Value.Null
        else Value.Int (Rkutil.Prng.int prng 50)
      in
      let score =
        match Rkutil.Prng.int prng 20 with
        | 0 -> Value.Null
        | 1 -> Value.Float nan
        | 2 | 3 | 4 -> Value.Float (float_of_int (Rkutil.Prng.int prng 8) /. 8.0)
        | _ -> Value.Float (Rkutil.Prng.uniform prng)
      in
      Tuple.make [ Value.Int i; key; score; Value.Str "t" ])

(* A float literal the lexer reads back exactly. *)
let lit f =
  if Float.is_nan f then "0.0 / 0.0"
  else if f < 0.0 then Printf.sprintf "(0 - %.17g)" (-.f)
  else Printf.sprintf "%.17g" f

let stats cat = (Catalog.table cat "T").Catalog.tb_stats

let column cat c =
  Option.get (Catalog.column_stats cat ~table:"T" ~column:c)

(* One statement of the mix. [cat] is consulted for the current extremes so
   that deletes and updates hit the min and max rows. *)
let gen_statement prng cat ~next_id =
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let ks = column cat "key" and ss = column cat "score" in
  let card = (stats cat).Catalog.ts_cardinality in
  let some_id () = Rkutil.Prng.int prng (max 1 !next_id) in
  let some_key () = Rkutil.Prng.int prng 50 in
  let score_value () =
    match Rkutil.Prng.int prng 12 with
    | 0 -> nan
    | 1 -> -0.0
    | 2 -> ss.Catalog.cs_max +. 1.0 (* new max *)
    | 3 -> ss.Catalog.cs_min -. 1.0
    | 4 | 5 | 6 -> float_of_int (Rkutil.Prng.int prng 8) /. 8.0 (* duplicates *)
    | _ -> Rkutil.Prng.uniform prng
  in
  let score_value () =
    let v = score_value () in
    if Float.is_finite v || Float.is_nan v then v else Rkutil.Prng.uniform prng
  in
  let key_extreme () =
    if ks.Catalog.cs_count = 0 then some_key ()
    else if Rkutil.Prng.bool prng then int_of_float ks.Catalog.cs_max
    else int_of_float ks.Catalog.cs_min
  in
  let row () =
    let key =
      if Rkutil.Prng.int prng 6 = 0 && ks.Catalog.cs_count > 0 then
        int_of_float ks.Catalog.cs_max + 1 + Rkutil.Prng.int prng 3
      else some_key ()
    in
    Printf.sprintf "(%d, %d, %s, 'r')" (fresh_id ()) key (lit (score_value ()))
  in
  let range () =
    let a = Rkutil.Prng.uniform prng in
    let b = Float.min 1.0 (a +. (Rkutil.Prng.uniform prng *. 0.05)) in
    Printf.sprintf "T.score >= %s AND T.score <= %s" (lit a) (lit b)
  in
  match Rkutil.Prng.int prng (if card < 40 then 4 else 14) with
  | 0 | 1 | 2 ->
      let n = 1 + Rkutil.Prng.int prng 3 in
      "INSERT INTO T VALUES " ^ String.concat ", " (List.init n (fun _ -> row ()))
  | 3 -> Printf.sprintf "DELETE FROM T WHERE T.id = %d" (some_id ())
  | 4 -> Printf.sprintf "DELETE FROM T WHERE T.key = %d" (some_key ())
  | 5 -> Printf.sprintf "DELETE FROM T WHERE T.key = %d" (key_extreme ())
  | 6 -> "DELETE FROM T WHERE " ^ range ()
  | 7 ->
      if not (Float.is_finite ss.Catalog.cs_max && Float.is_finite ss.Catalog.cs_min)
      then
        Printf.sprintf "DELETE FROM T WHERE T.id = %d" (some_id ())
      else if Rkutil.Prng.bool prng then
        Printf.sprintf "DELETE FROM T WHERE T.score >= %s" (lit ss.Catalog.cs_max)
      else Printf.sprintf "DELETE FROM T WHERE T.score <= %s" (lit ss.Catalog.cs_min)
  | 8 ->
      Printf.sprintf "UPDATE T SET score = %s WHERE T.id = %d"
        (lit (score_value ())) (some_id ())
  | 9 ->
      Printf.sprintf "UPDATE T SET key = T.key + %d WHERE T.key = %d"
        (1 + Rkutil.Prng.int prng 60) (key_extreme ())
  | 10 -> Printf.sprintf "UPDATE T SET score = T.score * 0.5 WHERE %s" (range ())
  | 11 ->
      Printf.sprintf "UPDATE T SET key = %d, score = %s WHERE T.key = %d"
        (some_key ()) (lit (score_value ())) (some_key ())
  | 12 -> Printf.sprintf "UPDATE T SET score = 0.0 / 0.0 WHERE T.id = %d" (some_id ())
  | _ -> Printf.sprintf "DELETE FROM T WHERE T.score >= 0 AND T.id = %d" (some_id ())

(* Rows with NULL cells, -0. and infinities, which SQL literals cannot
   express, inserted through the catalog API. *)
let direct_rows prng ~next_id =
  List.init
    (1 + Rkutil.Prng.int prng 2)
    (fun _ ->
      incr next_id;
      let score =
        Rkutil.Prng.pick prng
          [| Value.Null; Value.Float (-0.0); Value.Float infinity; Value.Int 3 |]
      in
      let key = if Rkutil.Prng.bool prng then Value.Null else Value.Int (-7) in
      Tuple.make [ Value.Int !next_id; key; score; Value.Str "d" ])

let test_dml_stats_match_analyze () =
  let prng = Rkutil.Prng.create 2024 in
  let rows = initial_rows prng 3000 in
  let mk () =
    let cat = Catalog.create ~tuples_per_page:40 () in
    ignore (Catalog.create_table cat "T" schema rows);
    ignore
      (Catalog.create_index cat ~clustered:false ~name:"T_score" ~table:"T"
         ~key:(Expr.col ~relation:"T" "score") ());
    cat
  in
  let live = mk () and twin = mk () in
  let next_id = ref 3000 in
  let divergences = ref 0 in
  let saw_nan = ref false and saw_empty = ref false in
  let saw_max_drop = ref false and saw_min_rise = ref false in
  let saw_new_max = ref false and saw_new_min = ref false in
  let statements = 1500 in
  for i = 1 to statements do
    let before = column live "score" and kbefore = column live "key" in
    (if i mod 500 = 250 then begin
       (* empty the table; the statements that follow refill it *)
       let a = Sqlfront.Sql.execute live "DELETE FROM T" in
       let b = Sqlfront.Sql.execute twin "DELETE FROM T" in
       Alcotest.(check bool) "empty both" true (a = b)
     end
     else if Rkutil.Prng.int prng 10 = 0 then begin
       let tuples = direct_rows prng ~next_id in
       Catalog.insert_into live ~table:"T" tuples;
       ignore (Catalog.refresh_stats live "T");
       Catalog.insert_into twin ~table:"T" tuples
     end
     else begin
       let sql = gen_statement prng live ~next_id in
       let a = Sqlfront.Sql.execute live sql in
       let b = Sqlfront.Sql.execute twin sql in
       (match a with
       | Ok (Sqlfront.Sql.Affected _) -> ()
       | Ok _ -> Alcotest.fail ("not a DML reply: " ^ sql)
       | Error e -> Alcotest.fail (sql ^ ": " ^ e));
       if a <> b then Alcotest.fail ("replies differ: " ^ sql)
     end);
    (match Catalog.check live "T" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "statement %d: %s" i e);
    ignore (Catalog.analyze twin "T");
    if compare (stats live) (stats twin) <> 0 then incr divergences;
    let after = column live "score" and kafter = column live "key" in
    if
      (not !saw_nan)
      && List.exists
           (fun tu ->
             match Tuple.get tu 2 with Value.Float f -> Float.is_nan f | _ -> false)
           (Heap_file.to_list (Catalog.table twin "T").Catalog.tb_heap)
    then saw_nan := true;
    if (stats live).Catalog.ts_cardinality = 0 then saw_empty := true;
    List.iter
      (fun (b, a) ->
        if b.Catalog.cs_count > 0 && a.Catalog.cs_count > 0 then begin
          if a.Catalog.cs_max < b.Catalog.cs_max then saw_max_drop := true;
          if a.Catalog.cs_min > b.Catalog.cs_min then saw_min_rise := true;
          if a.Catalog.cs_max > b.Catalog.cs_max then saw_new_max := true;
          if a.Catalog.cs_min < b.Catalog.cs_min then saw_new_min := true
        end)
      [ (before, after); (kbefore, kafter) ]
  done;
  Alcotest.(check int) "divergences from a full analyze" 0 !divergences;
  List.iter
    (fun (name, seen) -> Alcotest.(check bool) ("sequence covers " ^ name) true seen)
    [
      ("NaN scores", !saw_nan);
      ("an empty table", !saw_empty);
      ("deleting the max", !saw_max_drop);
      ("deleting the min", !saw_min_rise);
      ("a new max", !saw_new_max);
      ("a new min", !saw_new_min);
    ];
  (* Heaps agree too: the twins ran the same statements. *)
  let ids cat =
    List.sort compare
      (List.map
         (fun tu -> Value.to_int (Tuple.get tu 0))
         (Heap_file.to_list (Catalog.table cat "T").Catalog.tb_heap))
  in
  Alcotest.(check (list int)) "same rows" (ids twin) (ids live)

(* A statement that cannot be applied changes nothing: no row, no stats
   change, no epoch bump. *)
let test_rejected_insert_changes_nothing () =
  let cat = Catalog.create () in
  ignore (Catalog.create_table cat "T" schema (initial_rows (Rkutil.Prng.create 3) 50));
  let before = stats cat and epoch = Catalog.stats_epoch cat in
  (match
     Sqlfront.Sql.execute cat "INSERT INTO T VALUES (900, 1, 0.5, 'a'), (901, 'x', 0.5, 'b')"
   with
  | Error e ->
      Alcotest.(check bool) "insert error" true
        (String.length e >= 12 && String.sub e 0 12 = "insert error")
  | Ok _ -> Alcotest.fail "string in a numeric column accepted");
  Alcotest.(check bool) "stats unchanged" true (compare before (stats cat) = 0);
  Alcotest.(check int) "cardinality" 50
    (Heap_file.cardinality (Catalog.table cat "T").Catalog.tb_heap);
  Alcotest.(check int) "no epoch bump" epoch (Catalog.stats_epoch cat)

(* --- I/O-charge parity of the DML predicate scan --- *)

(* (page_reads, pool_hits, tuples_read) of each statement of a fixed
   sequence over a 2000-row table in a 16-frame pool with an unclustered
   index. *)
let io_scenario () =
  let schema =
    Schema.of_columns
      [
        Schema.column "id" Value.Tint;
        Schema.column "key" Value.Tint;
        Schema.column "score" Value.Tfloat;
      ]
  in
  let prng = Rkutil.Prng.create 13 in
  let rows =
    List.init 2000 (fun i ->
        Tuple.make
          [
            Value.Int i;
            Value.Int (Rkutil.Prng.int prng 40);
            Value.Float (Rkutil.Prng.uniform prng);
          ])
  in
  let cat = Catalog.create ~pool_frames:16 ~tuples_per_page:25 () in
  ignore (Catalog.create_table cat "T" schema rows);
  ignore
    (Catalog.create_index cat ~clustered:false ~name:"T_score" ~table:"T"
       ~key:(Expr.col ~relation:"T" "score") ());
  let where op c v = Expr.Cmp (op, Expr.col ~relation:"T" c, Expr.Const v) in
  let io = Catalog.io cat in
  let charge f =
    let before = Io_stats.snapshot io in
    ignore (f () : int);
    let d = Io_stats.diff (Io_stats.snapshot io) before in
    (d.Io_stats.page_reads, d.Io_stats.pool_hits, d.Io_stats.tuples_read)
  in
  let set_score v = [ ("score", fun _ -> Value.Float v) ] in
  List.map charge
    [
      (fun () ->
        Catalog.update_where cat ~table:"T" (where Expr.Eq "id" (Value.Int 1500))
          ~set:(set_score 0.5));
      (fun () ->
        Catalog.update_where cat ~table:"T" (where Expr.Eq "key" (Value.Int 7))
          ~set:[ ("key", fun tu -> Value.Int (Value.to_int (Tuple.get tu 1) + 100)) ]);
      (fun () -> Catalog.delete_from cat ~table:"T" (where Expr.Eq "id" (Value.Int 3)));
      (fun () ->
        Catalog.delete_from cat ~table:"T" (where Expr.Lt "score" (Value.Float 0.1)));
      (fun () ->
        Catalog.update_where cat ~table:"T"
          (where Expr.Gt "score" (Value.Float 0.9))
          ~set:(set_score 2.0));
      (fun () -> Catalog.delete_from cat ~table:"T" (where Expr.Eq "id" (Value.Int (-1))));
      (fun () -> Catalog.delete_from cat ~table:"T" (Expr.Const (Value.Bool true)));
    ]

let test_dml_io_parity () =
  (* The zone-pruned scan reads only the pages that can hold a match, and
     UPDATE rewrites rows in place (one more request of the row's page)
     instead of tombstoning them and appending to the tail page. *)
  let expected =
    [
      (1, 1, 25) (* id = 1500: one page *);
      (116, 21, 1975) (* key = 7: 79 of 80 pages hold a key 7 *);
      (1, 1, 25) (* id = 3 *);
      (157, 138, 1974);
      (154, 128, 1720) (* score > 0.9 rules out some pages *);
      (0, 0, 0) (* id = -1: no page *);
      (160, 1703, 1783) (* TRUE: every page *);
    ]
  in
  Alcotest.(check (list (triple int int int)))
    "page_reads, pool_hits, tuples_read per statement" expected (io_scenario ())

let suites =
  [
    ( "storage.dml_stats",
      [
        Alcotest.test_case "column ends, zeros, NaN" `Quick test_column_ends_and_zeros;
        QCheck_alcotest.to_alcotest prop_column_matches_build;
        Alcotest.test_case "1500 DML statements = full analyze" `Quick
          test_dml_stats_match_analyze;
        Alcotest.test_case "rejected insert changes nothing" `Quick
          test_rejected_insert_changes_nothing;
        Alcotest.test_case "DML scan I/O parity" `Quick test_dml_io_parity;
      ] );
  ]
