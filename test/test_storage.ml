(* Tests for pages, buffer pool, heap files, histograms and the catalog. *)

open Relalg
open Storage

let tu i s = Tuple.make [ Value.Int i; Value.Float s ]

let two_col_schema =
  Schema.of_columns
    [ Schema.column "id" Value.Tint; Schema.column "score" Value.Tfloat ]

let test_page_fill () =
  let p = Page.create ~id:0 ~capacity:2 in
  Alcotest.(check int) "slot 0" 0 (Page.add p (tu 0 0.0));
  Alcotest.(check int) "slot 1" 1 (Page.add p (tu 1 0.1));
  Alcotest.(check bool) "full" true (Page.is_full p);
  Alcotest.check_raises "overflow" (Invalid_argument "Page.add: page full")
    (fun () -> ignore (Page.add p (tu 2 0.2)));
  Alcotest.(check int) "count" 2 (Page.count p);
  Alcotest.(check bool) "get" true (Tuple.equal (tu 1 0.1) (Page.get p 1))

let test_pool_hit_miss_accounting () =
  let io = Io_stats.create () in
  let pool = Buffer_pool.create ~frames:2 io in
  let p0 = Buffer_pool.alloc_page pool ~capacity:4 in
  let p1 = Buffer_pool.alloc_page pool ~capacity:4 in
  let p2 = Buffer_pool.alloc_page pool ~capacity:4 in
  (* Only 2 frames: p0 must have been evicted (it was dirty -> 1 write). *)
  let snap = Io_stats.snapshot io in
  Alcotest.(check int) "one eviction write" 1 snap.Io_stats.page_writes;
  ignore (Buffer_pool.get pool (Page.id p1));
  ignore (Buffer_pool.get pool (Page.id p2));
  let snap = Io_stats.snapshot io in
  Alcotest.(check int) "hits" 2 snap.Io_stats.pool_hits;
  (* Re-reading p0 is a miss. *)
  ignore (Buffer_pool.get pool (Page.id p0));
  let snap = Io_stats.snapshot io in
  Alcotest.(check int) "one miss read" 1 snap.Io_stats.page_reads

(* Marking an evicted page dirty must fault it back in (a charged read) and
   register the frame dirty so the mutation reaches disk at the next
   eviction/flush — not silently no-op. *)
let test_mark_dirty_after_eviction () =
  let io = Io_stats.create () in
  let pool = Buffer_pool.create ~frames:1 io in
  let p0 = Buffer_pool.alloc_page pool ~capacity:4 in
  let p1 = Buffer_pool.alloc_page pool ~capacity:4 in
  (* One frame: allocating p1 evicted dirty p0 (1 write). *)
  let snap = Io_stats.snapshot io in
  Alcotest.(check int) "p0 evicted" 1 snap.Io_stats.page_writes;
  Buffer_pool.mark_dirty pool (Page.id p0);
  let snap = Io_stats.snapshot io in
  Alcotest.(check int) "p0 faulted back in" 1 snap.Io_stats.page_reads;
  Alcotest.(check int) "p1 evicted by the fault" 2 snap.Io_stats.page_writes;
  Buffer_pool.flush pool;
  let snap = Io_stats.snapshot io in
  Alcotest.(check int) "dirty p0 written by flush" 3 snap.Io_stats.page_writes;
  ignore (Buffer_pool.get pool (Page.id p1));
  Alcotest.check_raises "unknown page"
    (Invalid_argument "Buffer_pool.mark_dirty: unknown page 999") (fun () ->
      Buffer_pool.mark_dirty pool 999)

let test_pool_unknown_page () =
  let pool = Buffer_pool.create (Io_stats.create ()) in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Buffer_pool.get: unknown page 999") (fun () ->
      ignore (Buffer_pool.get pool 999))

let test_heap_file_roundtrip () =
  let io = Io_stats.create () in
  let pool = Buffer_pool.create ~frames:8 io in
  let hf = Heap_file.create ~tuples_per_page:3 pool two_col_schema in
  let tuples = List.init 10 (fun i -> tu i (float_of_int i /. 10.0)) in
  Heap_file.load hf tuples;
  Alcotest.(check int) "cardinality" 10 (Heap_file.cardinality hf);
  Alcotest.(check int) "pages" 4 (Heap_file.n_pages hf);
  let out = Heap_file.to_list hf in
  Alcotest.(check bool) "roundtrip" true (List.equal Tuple.equal tuples out)

let test_heap_file_fetch_by_rid () =
  let pool = Buffer_pool.create (Io_stats.create ()) in
  let hf = Heap_file.create ~tuples_per_page:2 pool two_col_schema in
  let rids = List.map (Heap_file.append hf) (List.init 5 (fun i -> tu i 0.0)) in
  List.iteri
    (fun i rid ->
      Alcotest.(check bool)
        (Printf.sprintf "fetch %d" i)
        true
        (Tuple.equal (tu i 0.0)
           (Heap_file.fetch hf ~page_id:rid.Heap_file.page_id
              ~slot:rid.Heap_file.slot)))
    rids

let test_heap_file_scan_charges_io () =
  let io = Io_stats.create () in
  (* A pool smaller than the file forces re-reads on every scan. *)
  let pool = Buffer_pool.create ~frames:2 io in
  let hf = Heap_file.create ~tuples_per_page:10 pool two_col_schema in
  Heap_file.load hf (List.init 100 (fun i -> tu i 0.0));
  Io_stats.reset io;
  ignore (Heap_file.to_list hf);
  let snap = Io_stats.snapshot io in
  Alcotest.(check bool) "scan reads pages" true (snap.Io_stats.page_reads >= 8)

let test_histogram_selectivity () =
  let values = List.init 1000 (fun i -> float_of_int i /. 1000.0) in
  let h = Histogram.build ~buckets:20 values in
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let le_half = Histogram.selectivity_le h 0.5 in
  Alcotest.(check bool) "<=0.5 near 0.5" true (Float.abs (le_half -. 0.5) < 0.05);
  let in_q = Histogram.selectivity_range h ~lo:0.25 ~hi:0.75 in
  Alcotest.(check bool) "quartiles near 0.5" true (Float.abs (in_q -. 0.5) < 0.05);
  Alcotest.(check (float 0.0)) "below range" 0.0 (Histogram.selectivity_le h (-1.0));
  Alcotest.(check (float 0.0)) "above range" 1.0 (Histogram.selectivity_le h 2.0)

(* Boundary-value contract for the selectivity estimators: predicates
   entirely below/above the recorded domain return exactly 0/1 (or 0 mass for
   ranges), and a degenerate point range delegates to selectivity_eq instead
   of collapsing to [le hi - le lo = 0]. *)
let test_histogram_range_boundaries () =
  let values = List.init 100 (fun i -> float_of_int i) in
  (* domain [0, 99] *)
  let h = Histogram.build ~buckets:10 values in
  Alcotest.(check (float 0.0)) "le below min" 0.0 (Histogram.selectivity_le h (-0.5));
  Alcotest.(check (float 0.0)) "le at max" 1.0 (Histogram.selectivity_le h 99.0);
  Alcotest.(check (float 0.0)) "le above max" 1.0 (Histogram.selectivity_le h 1000.0);
  Alcotest.(check (float 0.0)) "range entirely below" 0.0
    (Histogram.selectivity_range h ~lo:(-10.0) ~hi:(-1.0));
  Alcotest.(check (float 0.0)) "range entirely above" 0.0
    (Histogram.selectivity_range h ~lo:100.5 ~hi:200.0);
  Alcotest.(check (float 0.0)) "inverted range" 0.0
    (Histogram.selectivity_range h ~lo:10.0 ~hi:5.0);
  (* Point range = selectivity_eq, and it must be strictly positive for an
     in-domain value. *)
  let eq50 = Histogram.selectivity_eq h 50.0 in
  Alcotest.(check bool) "eq positive" true (eq50 > 0.0);
  Alcotest.(check (float 0.0)) "point range = eq" eq50
    (Histogram.selectivity_range h ~lo:50.0 ~hi:50.0);
  Alcotest.(check (float 0.0)) "point range at min" (Histogram.selectivity_eq h 0.0)
    (Histogram.selectivity_range h ~lo:0.0 ~hi:0.0);
  Alcotest.(check (float 0.0)) "point range at max" (Histogram.selectivity_eq h 99.0)
    (Histogram.selectivity_range h ~lo:99.0 ~hi:99.0);
  Alcotest.(check (float 0.0)) "point range outside domain" 0.0
    (Histogram.selectivity_range h ~lo:(-3.0) ~hi:(-3.0));
  (* A closed range that straddles the minimum must not report less mass
     than the included endpoint alone. *)
  Alcotest.(check bool) "straddling min >= eq(min)" true
    (Histogram.selectivity_range h ~lo:(-5.0) ~hi:0.0
    >= Histogram.selectivity_eq h 0.0);
  (* Whole-domain range is everything. *)
  Alcotest.(check (float 1e-9)) "whole domain" 1.0
    (Histogram.selectivity_range h ~lo:(-1.0) ~hi:100.0)

let test_histogram_single_value () =
  (* All values identical: degenerate zero-width domain. *)
  let h = Histogram.build (List.init 5 (fun _ -> 7.0)) in
  Alcotest.(check (float 0.0)) "le below" 0.0 (Histogram.selectivity_le h 6.0);
  Alcotest.(check (float 0.0)) "le at" 1.0 (Histogram.selectivity_le h 7.0);
  Alcotest.(check bool) "point range positive" true
    (Histogram.selectivity_range h ~lo:7.0 ~hi:7.0 > 0.0);
  Alcotest.(check (float 0.0)) "range below" 0.0
    (Histogram.selectivity_range h ~lo:0.0 ~hi:6.9);
  Alcotest.(check (float 0.0)) "range above" 0.0
    (Histogram.selectivity_range h ~lo:7.1 ~hi:8.0)

let test_histogram_empty () =
  let h = Histogram.build [] in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "sel" 0.0 (Histogram.selectivity_le h 0.5);
  Alcotest.(check (float 0.0)) "slab" 0.0 (Histogram.mean_decrement_slab h)

let test_histogram_slab () =
  (* 11 evenly spaced values in [0,1]: slab = 0.1. *)
  let values = List.init 11 (fun i -> float_of_int i /. 10.0) in
  let h = Histogram.build values in
  Test_util.check_floats_close ~eps:1e-9 "slab" 0.1 (Histogram.mean_decrement_slab h)

let test_catalog_create_and_stats () =
  let cat = Catalog.create () in
  let tuples = List.init 100 (fun i -> tu (i mod 10) (float_of_int i /. 100.0)) in
  let info = Catalog.create_table cat "T" two_col_schema tuples in
  Alcotest.(check int) "cardinality" 100 info.Catalog.tb_stats.Catalog.ts_cardinality;
  (match Catalog.column_stats cat ~table:"T" ~column:"id" with
  | None -> Alcotest.fail "missing id stats"
  | Some cs ->
      Alcotest.(check int) "distinct ids" 10 cs.Catalog.cs_distinct;
      Alcotest.(check (float 0.0)) "min" 0.0 cs.Catalog.cs_min;
      Alcotest.(check (float 0.0)) "max" 9.0 cs.Catalog.cs_max);
  Alcotest.(check bool) "schema qualified" true
    (Schema.mem info.Catalog.tb_schema ~relation:"T" "score")

let test_catalog_duplicate_table () =
  let cat = Catalog.create () in
  ignore (Catalog.create_table cat "T" two_col_schema []);
  Alcotest.check_raises "dup" (Invalid_argument "Catalog.create_table: duplicate table T")
    (fun () -> ignore (Catalog.create_table cat "T" two_col_schema []))

let test_catalog_index_lookup_by_expr () =
  let cat = Catalog.create () in
  ignore (Catalog.create_table cat "T" two_col_schema [ tu 1 0.5 ]);
  let ix =
    Catalog.create_index cat ~name:"T_score" ~table:"T"
      ~key:(Expr.col ~relation:"T" "score") ()
  in
  Alcotest.(check int) "entries" 1 (Btree.length ix.Catalog.ix_btree);
  (match Catalog.find_index_on_expr cat ~table:"T" (Expr.col ~relation:"T" "score") with
  | Some found -> Alcotest.(check string) "found" "T_score" found.Catalog.ix_name
  | None -> Alcotest.fail "index not found by expression");
  (* A scaled expression induces the same order, so it should match too. *)
  match
    Catalog.find_index_on_expr cat ~table:"T"
      Expr.(cfloat 2.0 * col ~relation:"T" "score")
  with
  | Some _ -> ()
  | None -> Alcotest.fail "scaled expression should match index order"

let test_join_selectivity_estimate () =
  let cat = Catalog.create () in
  let mk n domain seed =
    let prng = Rkutil.Prng.create seed in
    List.init n (fun i -> tu (Rkutil.Prng.int prng domain) (float_of_int i))
  in
  ignore (Catalog.create_table cat "L" two_col_schema (mk 500 20 1));
  ignore (Catalog.create_table cat "R" two_col_schema (mk 500 50 2));
  let s = Catalog.estimate_join_selectivity cat ~left:("L", "id") ~right:("R", "id") in
  (* 1 / max(distinct) = 1/50. *)
  Alcotest.(check bool) "close to 1/50" true (Float.abs (s -. 0.02) < 0.005)

let suites =
  [
    ( "storage.page_pool",
      [
        Alcotest.test_case "page fill" `Quick test_page_fill;
        Alcotest.test_case "pool accounting" `Quick test_pool_hit_miss_accounting;
        Alcotest.test_case "mark_dirty after eviction" `Quick
          test_mark_dirty_after_eviction;
        Alcotest.test_case "unknown page" `Quick test_pool_unknown_page;
      ] );
    ( "storage.heap_file",
      [
        Alcotest.test_case "roundtrip" `Quick test_heap_file_roundtrip;
        Alcotest.test_case "fetch by rid" `Quick test_heap_file_fetch_by_rid;
        Alcotest.test_case "scan charges io" `Quick test_heap_file_scan_charges_io;
      ] );
    ( "storage.histogram",
      [
        Alcotest.test_case "selectivity" `Quick test_histogram_selectivity;
        Alcotest.test_case "range boundaries" `Quick test_histogram_range_boundaries;
        Alcotest.test_case "single value" `Quick test_histogram_single_value;
        Alcotest.test_case "empty" `Quick test_histogram_empty;
        Alcotest.test_case "decrement slab" `Quick test_histogram_slab;
      ] );
    ( "storage.catalog",
      [
        Alcotest.test_case "create/stats" `Quick test_catalog_create_and_stats;
        Alcotest.test_case "duplicate table" `Quick test_catalog_duplicate_table;
        Alcotest.test_case "index by expr" `Quick test_catalog_index_lookup_by_expr;
        Alcotest.test_case "join selectivity" `Quick test_join_selectivity_estimate;
      ] );
  ]
