(* Tests for the zone-pruned DML predicate scan and in-place UPDATE: the
   pruned scan must find exactly the rows an unpruned scan finds, in the
   same order, after any mix of DML; a point UPDATE must read one heap
   page and leave the heap's shape alone; and Catalog.check must accept
   every state DML leaves behind and reject a corrupted one. *)

open Relalg
open Storage

let schema =
  Schema.of_columns
    [
      Schema.column "id" Value.Tint;
      Schema.column "key" Value.Tint;
      Schema.column "score" Value.Tfloat;
      Schema.column "tag" Value.Tstring;
    ]

let big = 1 lsl 53

(* Cells that stress the zone arithmetic: NULL, NaN, both zeros, both
   infinities, ints that floats cannot tell apart, and Int/Float pairs that
   compare equal. *)
let special =
  [|
    Value.Null;
    Value.Int 3;
    Value.Float 3.0;
    Value.Int (-3);
    Value.Float 2.5;
    Value.Float (-0.0);
    Value.Float 0.0;
    Value.Int 0;
    Value.Float nan;
    Value.Float infinity;
    Value.Float neg_infinity;
    Value.Int big;
    Value.Int (big + 1);
    Value.Int (big + 2);
    Value.Int (-big - 1);
    Value.Float (float_of_int big);
  |]

let cell prng =
  match Rkutil.Prng.int prng 4 with
  | 0 -> Rkutil.Prng.pick prng special
  | 1 -> Value.Int (Rkutil.Prng.int prng 20 - 5)
  | 2 -> Value.Float (float_of_int (Rkutil.Prng.int prng 40) /. 4.0)
  | _ -> Value.Float (Rkutil.Prng.float prng 10.0)

let tag prng = Rkutil.Prng.pick prng [| Value.Null; Value.Str "a"; Value.Str "b" |]

let row prng id = [| Value.Int id; cell prng; cell prng; tag prng |]

let constant prng ~next_id =
  match Rkutil.Prng.int prng 6 with
  | 0 | 1 -> Value.Int (Rkutil.Prng.int prng (max 1 next_id))
  | 2 -> Rkutil.Prng.pick prng [| Value.Str "a"; Value.Bool true; Value.Null |]
  | _ -> cell prng

let column_name prng = Rkutil.Prng.pick prng [| "id"; "key"; "score"; "tag" |]

let ops = [| Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge |]

let atom prng ~next_id =
  let c = Expr.col ~relation:"T" (column_name prng) in
  let k = Expr.Const (constant prng ~next_id) in
  let op = Rkutil.Prng.pick prng ops in
  if Rkutil.Prng.bool prng then Expr.Cmp (op, c, k) else Expr.Cmp (op, k, c)

let rec pred prng ~next_id depth =
  match if depth = 0 then 0 else Rkutil.Prng.int prng 7 with
  | 0 | 1 | 2 | 3 -> atom prng ~next_id
  | 4 -> Expr.And (pred prng ~next_id (depth - 1), pred prng ~next_id (depth - 1))
  | 5 -> Expr.Or (pred prng ~next_id (depth - 1), pred prng ~next_id (depth - 1))
  | _ -> Expr.Not (pred prng ~next_id (depth - 1))

(* A WHERE clause: a top-level conjunction of one to three terms, as the
   pruning reads them. *)
let where prng ~next_id =
  let terms =
    List.init (1 + Rkutil.Prng.int prng 3) (fun _ -> pred prng ~next_id 2)
  in
  List.fold_left (fun acc t -> Expr.And (acc, t)) (List.hd terms) (List.tl terms)

(* The unpruned reference: every page, every live row, storage order. *)
let reference cat p =
  let info = Catalog.table cat "T" in
  let test = Expr.compile_bool info.Catalog.tb_schema p in
  List.rev
    (Heap_file.fold_with_rids
       (fun acc _ rid tu -> if test tu then (rid, tu) :: acc else acc)
       [] info.Catalog.tb_heap)

let same_rows a b =
  List.equal (fun (r, t) (r', t') -> r = r' && Tuple.equal t t') a b

let check_ok cat what =
  match Catalog.check cat "T" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* One seeded sequence of DML that appends to and tombstones pages and
   rewrites rows in place, comparing the pruned scan against the reference
   after every statement. Returns the number of probes that skipped at
   least one page. *)
let run_sequence seed =
  let prng = Rkutil.Prng.create seed in
  let cat = Catalog.create ~pool_frames:8 ~tuples_per_page:6 () in
  let n = 30 + Rkutil.Prng.int prng 60 in
  ignore (Catalog.create_table cat "T" schema (List.init n (row prng)));
  ignore
    (Catalog.create_index cat ~clustered:false ~name:"T_score" ~table:"T"
       ~key:(Expr.col ~relation:"T" "score") ());
  ignore
    (Catalog.create_index cat ~name:"T_key" ~table:"T"
       ~key:(Expr.col ~relation:"T" "key") ());
  let next_id = ref n and pruned = ref 0 in
  let io = Catalog.io cat in
  for step = 1 to 30 do
    (match Rkutil.Prng.int prng 9 with
    | 0 | 1 ->
        let rows =
          List.init (1 + Rkutil.Prng.int prng 8) (fun _ ->
              incr next_id;
              row prng !next_id)
        in
        Catalog.insert_into cat ~table:"T" rows
    | 2 | 3 ->
        ignore (Catalog.delete_from cat ~table:"T" (where prng ~next_id:!next_id))
    | 4 when step mod 10 = 0 -> ignore (Catalog.analyze cat "T")
    | _ ->
        let v = cell prng in
        let set =
          match Rkutil.Prng.int prng 4 with
          | 0 -> [ ("score", fun _ -> v) ]
          | 1 -> [ ("key", fun _ -> v); ("score", fun tu -> Tuple.get tu 1) ]
          | 2 -> [ ("id", fun _ -> v) ]
          | _ -> [ ("tag", fun _ -> Value.Str "c") ]
        in
        let p = where prng ~next_id:!next_id in
        ignore (Catalog.update_where cat ~table:"T" p ~set));
    check_ok cat (Printf.sprintf "seed %d step %d" seed step);
    for _ = 1 to 6 do
      let p = where prng ~next_id:!next_id in
      let card = Heap_file.cardinality (Catalog.table cat "T").Catalog.tb_heap in
      let before = (Io_stats.snapshot io).Io_stats.tuples_read in
      let got = Catalog.matching cat ~table:"T" p in
      if (Io_stats.snapshot io).Io_stats.tuples_read - before < card then incr pruned;
      if not (same_rows got (reference cat p)) then
        Alcotest.failf "seed %d step %d: pruned scan differs on %s" seed step
          (Expr.to_string p)
    done
  done;
  !pruned

let test_pruning_is_exact () =
  let pruned = ref 0 in
  for seed = 0 to 149 do
    pruned := !pruned + run_sequence seed
  done;
  (* The comparison means something only if pages were actually skipped. *)
  Alcotest.(check bool) "some probes skipped pages" true (!pruned > 1000)

(* Each zone rule on its own, at the edges the property draws from. *)
let test_zone_rules () =
  let z = Zones.create () in
  let may op c = Zones.may_match z ~page:0 op c in
  Alcotest.(check bool) "empty zone admits no equality" false (may Expr.Eq 3.0);
  Alcotest.(check bool) "empty zone admits <>" true (may Expr.Ne 3.0);
  Zones.widen z ~page:0 Value.Null;
  Alcotest.(check bool) "NULL does not widen" false (may Expr.Ge 0.0);
  Zones.widen z ~page:0 (Value.Int 3);
  Zones.widen z ~page:0 (Value.Float (-0.0));
  Alcotest.(check bool) "3.0 = Int 3" true (may Expr.Eq 3.0);
  Alcotest.(check bool) "+0. = -0." true (may Expr.Eq 0.0);
  Alcotest.(check bool) "< below min" false (may Expr.Lt (-1.0));
  Alcotest.(check bool) "< at min" true (may Expr.Lt 0.0);
  Alcotest.(check bool) "> above max" false (may Expr.Gt 3.5);
  Alcotest.(check bool) "other page empty" false
    (Zones.may_match z ~page:5 Expr.Le 1e300);
  (* Ints beyond 2^53 round to the same float: x > c can hold while
     float x = float c. *)
  let w = Zones.create () in
  Zones.widen w ~page:0 (Value.Int (big + 1));
  Alcotest.(check bool) "big int > its rounded neighbour" true
    (Zones.may_match w ~page:0 Expr.Gt (float_of_int big));
  Zones.widen z ~page:0 (Value.Float nan);
  Alcotest.(check bool) "NaN: < -inf may hold" true (may Expr.Lt neg_infinity);
  Alcotest.(check bool) "NaN zone covers NaN" true
    (Zones.covers z ~page:0 (Value.Float nan));
  Zones.widen w ~page:1 (Value.Bool true);
  Alcotest.(check bool) "Bool cell is unprunable" true
    (Zones.may_match w ~page:1 Expr.Gt 1e300)

(* The benchmark's leaderboard table: 64 000 rows, 50 per page, no index on
   id. Every point UPDATE by id reads the one page holding the row. *)
let test_point_updates_read_one_page () =
  let cat = Catalog.create ~pool_frames:256 () in
  let info =
    Workload.Generator.load_scored_table cat (Rkutil.Prng.create 101) ~name:"L"
      ~n:64000 ~key_domain:6400 ()
  in
  let heap = info.Catalog.tb_heap in
  let pages = Heap_file.n_pages heap in
  let io = Catalog.io cat in
  let prng = Rkutil.Prng.create 7 in
  for _ = 1 to 1000 do
    let id = Rkutil.Prng.int prng 64000 in
    let sql =
      Printf.sprintf "UPDATE L SET score = %f WHERE id = %d"
        (Rkutil.Prng.uniform prng) id
    in
    let before = Io_stats.snapshot io in
    (match Sqlfront.Sql.execute cat sql with
    | Ok (Sqlfront.Sql.Affected 1) -> ()
    | _ -> Alcotest.fail sql);
    let d = Io_stats.diff (Io_stats.snapshot io) before in
    (* The scan reads the row's page and its 50 rows; the in-place write
       requests the same page once more. *)
    let requests = d.Io_stats.page_reads + d.Io_stats.pool_hits in
    if d.Io_stats.tuples_read <> 50 || requests <> 2 then
      Alcotest.failf "%s: %d pages requested, %d tuples read" sql requests
        d.Io_stats.tuples_read
  done;
  Alcotest.(check int) "pages" pages (Heap_file.n_pages heap);
  Alcotest.(check int) "cardinality" 64000 (Heap_file.cardinality heap);
  match Catalog.check cat "L" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let everything = Expr.Const (Value.Bool true)

let rows_of cat = Catalog.matching cat ~table:"T" everything

let small_table ~key n =
  let cat = Catalog.create ~tuples_per_page:4 () in
  ignore
    (Catalog.create_table cat "T" schema
       (List.init n (fun i ->
            [| Value.Int i; Value.Int (key i); Value.Float 0.5; Value.Str "a" |])));
  cat

(* An UPDATE keeps every row at its record id and in its index position. *)
let test_update_in_place () =
  let cat = small_table ~key:(fun i -> i mod 2) 10 in
  let key = Expr.col ~relation:"T" "key" in
  ignore (Catalog.create_index cat ~name:"T_key" ~table:"T" ~key ());
  let before = List.map fst (rows_of cat) in
  let n =
    Catalog.update_where cat ~table:"T" everything
      ~set:[ ("score", fun tu -> Value.Float (Value.to_float tu.(0))) ]
  in
  Alcotest.(check int) "updated" 10 n;
  Alcotest.(check bool) "same rids" true (before = List.map fst (rows_of cat));
  (* Equal clustered keys keep their order: ids ascending within a key. *)
  let ix = Option.get (Catalog.find_index_on_expr cat ~table:"T" key) in
  Alcotest.(check (list int)) "clustered order"
    [ 0; 2; 4; 6; 8; 1; 3; 5; 7; 9 ]
    (List.map
       (fun (_, tu) -> Value.to_int tu.(0))
       (Btree.to_list_asc ix.Catalog.ix_btree));
  Alcotest.(check int) "pages" 3
    (Heap_file.n_pages (Catalog.table cat "T").Catalog.tb_heap);
  check_ok cat "after update";
  (* A failing replacement leaves everything as it was. *)
  let bad tu = if Value.to_int tu.(0) = 7 then Value.Str "x" else Value.Float 1.0 in
  Alcotest.check_raises "string in a numeric column"
    (Invalid_argument "Value.to_float: string value x") (fun () ->
      ignore (Catalog.update_where cat ~table:"T" everything ~set:[ ("score", bad) ]));
  Alcotest.(check (list (float 0.0))) "scores unchanged"
    (List.init 10 float_of_int)
    (List.map (fun (_, tu) -> Value.to_float tu.(2)) (rows_of cat));
  check_ok cat "after rejected update"

(* The checker is not vacuous: each kind of divergence is reported. *)
let test_check_rejects_corruption () =
  let fresh () =
    let cat = small_table ~key:Fun.id 12 in
    ignore
      (Catalog.create_index cat ~clustered:false ~name:"T_score" ~table:"T"
         ~key:(Expr.col ~relation:"T" "score") ());
    check_ok cat "fresh table";
    (cat, Catalog.table cat "T")
  in
  let rejects what cat =
    match Catalog.check cat "T" with
    | Ok () -> Alcotest.failf "%s not reported" what
    | Error _ -> ()
  in
  let cat, info = fresh () in
  Btree.insert (List.hd info.Catalog.tb_indexes).Catalog.ix_btree (Value.Float 0.5)
    [| Value.Int 0; Value.Int 0 |];
  rejects "a stray index entry" cat;
  let cat, info = fresh () in
  let rid5 = fst (List.nth (rows_of cat) 5) in
  Heap_file.replace info.Catalog.tb_heap rid5
    [| Value.Int 5; Value.Int 5; Value.Float 0.5; Value.Str "a" |];
  check_ok cat "an identical rewrite";
  Heap_file.replace info.Catalog.tb_heap rid5
    [| Value.Int 500; Value.Int 5; Value.Float 0.5; Value.Str "a" |];
  rejects "a cell outside its zone and its sorted column" cat;
  let cat, info = fresh () in
  ignore (Heap_file.delete info.Catalog.tb_heap (fst (List.hd (rows_of cat))));
  rejects "a row deleted behind the indexes' back" cat

let suites =
  [
    ( "storage.dml_scan",
      [
        Alcotest.test_case "zone rules at the edges" `Quick test_zone_rules;
        Alcotest.test_case "pruned scan = unpruned scan (150 seeds)" `Quick
          test_pruning_is_exact;
        Alcotest.test_case "UPDATE rewrites in place" `Quick test_update_in_place;
        Alcotest.test_case "check rejects corruption" `Quick
          test_check_rejects_corruption;
        Alcotest.test_case "1000 point UPDATEs read one page each" `Quick
          test_point_updates_read_one_page;
      ] );
  ]
