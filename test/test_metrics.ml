(* The execution observability layer: Io_stats sink-scoping, the metrics
   registry, and EXPLAIN ANALYZE — whose observed depths must be exactly the
   rank-join operators' [Exec_stats] depths. *)

open Relalg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* --- Io_stats sink mirroring -------------------------------------------- *)

let test_sink_mirroring () =
  let root = Storage.Io_stats.create () in
  let a = Storage.Io_stats.create () in
  let b = Storage.Io_stats.create () in
  Storage.Io_stats.add_page_read root;
  Storage.Io_stats.with_sink root a (fun () ->
      Storage.Io_stats.add_page_read root;
      (* Re-pointing the sink one level deeper: the innermost wins. *)
      Storage.Io_stats.with_sink root b (fun () ->
          Storage.Io_stats.add_page_write root);
      Storage.Io_stats.add_pool_hit root);
  Storage.Io_stats.add_page_read root;
  let r = Storage.Io_stats.snapshot root in
  let sa = Storage.Io_stats.snapshot a in
  let sb = Storage.Io_stats.snapshot b in
  Alcotest.(check int) "root sees everything (reads)" 3 r.Storage.Io_stats.page_reads;
  Alcotest.(check int) "root sees everything (writes)" 1 r.Storage.Io_stats.page_writes;
  Alcotest.(check int) "a: only its scope's reads" 1 sa.Storage.Io_stats.page_reads;
  Alcotest.(check int) "a: hit in scope" 1 sa.Storage.Io_stats.pool_hits;
  Alcotest.(check int) "a: write went deeper" 0 sa.Storage.Io_stats.page_writes;
  Alcotest.(check int) "b: the inner write" 1 sb.Storage.Io_stats.page_writes;
  Alcotest.(check bool) "sink restored" true (Storage.Io_stats.sink root = None)

(* --- the HRJN pipeline fixture ------------------------------------------ *)

let setup_catalog () =
  let cat = Storage.Catalog.create ~pool_frames:64 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (11 + (31 * i)))
           ~name ~n:2000 ~key_domain:200 ()))
    [ "A"; "B" ];
  cat

let score_of t = Expr.col ~relation:t "score"

let index_scan_desc cat t =
  let ix =
    match Storage.Catalog.find_index_on_expr cat ~table:t (score_of t) with
    | Some ix -> ix.Storage.Catalog.ix_name
    | None -> Alcotest.failf "no score index on %s" t
  in
  Core.Plan.Index_scan { table = t; index = ix; key = score_of t; desc = true }

let hrjn_topk cat k =
  Core.Plan.Top_k
    {
      k;
      input =
        Core.Plan.Rank_join
          {
            inputs = [ index_scan_desc cat "A"; index_scan_desc cat "B" ];
            scores = [ score_of "A"; score_of "B" ];
            keys = [ ("A", "key"); ("B", "key") ];
          };
    }

let topk_query k =
  let relations =
    List.map (fun t -> Core.Logical.base ~score:(score_of t) t) [ "A"; "B" ]
  in
  Core.Logical.make ~relations
    ~joins:[ Core.Logical.equijoin ("A", "key") ("B", "key") ]
    ~k ()

let analyzed_run () =
  let cat = setup_catalog () in
  let k = 10 in
  let plan = hrjn_topk cat k in
  let env = Core.Cost_model.default_env ~k_min:k cat (topk_query k) in
  let ann = Core.Propagate.run env ~k plan in
  let metrics = Exec.Metrics.create (Storage.Catalog.io cat) in
  let result = Core.Executor.run ~metrics cat plan in
  (env, ann, metrics, result)

let rec find_profile pred (p : Core.Executor.profile) =
  if pred p.Core.Executor.p_plan then Some p
  else List.find_map (find_profile pred) p.Core.Executor.p_children

let is_rank_join = function
  | Core.Plan.Rank_join _ -> true
  | _ -> false

(* The tentpole regression: the depths EXPLAIN ANALYZE observes are wired to
   the very Exec_stats records the rank-join operators maintain — same
   numbers, same object. *)
let test_analyze_depths_equal_exec_stats () =
  let _env, _ann, _metrics, result = analyzed_run () in
  let profile =
    match result.Core.Executor.profile with
    | Some p -> p
    | None -> Alcotest.fail "metrics supplied but no profile returned"
  in
  let hrjn =
    match find_profile is_rank_join profile with
    | Some p -> p
    | None -> Alcotest.fail "no HRJN node in profile"
  in
  let rn =
    match result.Core.Executor.rank_nodes with
    | [ rn ] -> rn
    | l -> Alcotest.failf "expected 1 rank node, got %d" (List.length l)
  in
  let observed = Exec.Exec_stats.depths hrjn.Core.Executor.p_node.Exec.Metrics.stats in
  let from_executor = Exec.Exec_stats.depths rn.Core.Executor.stats in
  Alcotest.(check (array int)) "profile depths = rank-join depths" from_executor observed;
  Alcotest.(check bool) "depths are non-trivial" true
    (Exec.Exec_stats.left_depth rn.Core.Executor.stats > 0
    && Exec.Exec_stats.right_depth rn.Core.Executor.stats > 0);
  Alcotest.(check int) "k rows out" 10 (List.length result.Core.Executor.rows)

let test_analyze_rendering () =
  let env, ann, _metrics, result = analyzed_run () in
  let profile = Option.get result.Core.Executor.profile in
  let text = Core.Analyze.render ~env ~propagation:ann profile in
  let rn = List.hd result.Core.Executor.rank_nodes in
  let dl = Exec.Exec_stats.left_depth rn.Core.Executor.stats in
  let dr = Exec.Exec_stats.right_depth rn.Core.Executor.stats in
  Alcotest.(check bool) "HRJN line present" true (contains text "HRJN");
  Alcotest.(check bool) "observed left depth printed" true
    (contains text (Printf.sprintf "in0=%d (predicted" dl));
  Alcotest.(check bool) "observed right depth printed" true
    (contains text (Printf.sprintf "in1=%d (predicted" dr));
  Alcotest.(check bool) "estimate column present" true
    (contains text "io: estimated")

(* Per-node I/O attributions must partition the run's total: every charge
   lands in exactly one (innermost) node. *)
let test_io_attribution_partitions_total () =
  let _env, _ann, metrics, result = analyzed_run () in
  let sum f =
    List.fold_left
      (fun acc (n : Exec.Metrics.node) ->
        acc + f (Storage.Io_stats.snapshot n.Exec.Metrics.io))
      0 (Exec.Metrics.nodes metrics)
  in
  Alcotest.(check int) "reads partitioned"
    result.Core.Executor.io.Storage.Io_stats.page_reads
    (sum (fun s -> s.Storage.Io_stats.page_reads));
  Alcotest.(check int) "pool hits partitioned"
    result.Core.Executor.io.Storage.Io_stats.pool_hits
    (sum (fun s -> s.Storage.Io_stats.pool_hits));
  Alcotest.(check int) "writes partitioned"
    result.Core.Executor.io.Storage.Io_stats.page_writes
    (sum (fun s -> s.Storage.Io_stats.page_writes))

let test_node_json_shape () =
  let _env, _ann, metrics, _result = analyzed_run () in
  List.iter
    (fun (n : Exec.Metrics.node) ->
      let j = Exec.Metrics.node_to_json n in
      Alcotest.(check bool) "json has label" true (contains j "\"label\":");
      Alcotest.(check bool) "json has depths" true (contains j "\"depths\":[");
      Alcotest.(check bool) "json has io" true (contains j "\"page_reads\":"))
    (Exec.Metrics.nodes metrics)

(* --- vectorized vs tuple-at-a-time profile parity ----------------------- *)

(* The vectorized executor reports tuple-exact metrics: running the same
   plan batch-at-a-time and tuple-at-a-time must produce the same profile
   tree with the same per-node depths, emitted counts and buffer
   high-water marks (inputs stay below sort memory, so no spill I/O is
   involved). This pins the EXPLAIN ANALYZE contract: batching is an
   execution detail, not an observability change. *)

let profile_of ~vectorized cat plan =
  let metrics = Exec.Metrics.create (Storage.Catalog.io cat) in
  let result = Core.Executor.run ~metrics ~vectorized cat plan in
  match result.Core.Executor.profile with
  | Some p -> (result, p)
  | None -> Alcotest.fail "metrics supplied but no profile returned"

let rec check_profiles_equal path (a : Core.Executor.profile)
    (b : Core.Executor.profile) =
  let la = Core.Executor.node_label a.Core.Executor.p_plan in
  let lb = Core.Executor.node_label b.Core.Executor.p_plan in
  Alcotest.(check string) (path ^ ": operator") la lb;
  let sa = a.Core.Executor.p_node.Exec.Metrics.stats in
  let sb = b.Core.Executor.p_node.Exec.Metrics.stats in
  Alcotest.(check (array int))
    (path ^ "/" ^ la ^ ": depths")
    (Exec.Exec_stats.depths sa) (Exec.Exec_stats.depths sb);
  Alcotest.(check int)
    (path ^ "/" ^ la ^ ": emitted")
    (Exec.Exec_stats.emitted sa) (Exec.Exec_stats.emitted sb);
  Alcotest.(check int)
    (path ^ "/" ^ la ^ ": buffer high-water")
    (Exec.Exec_stats.buffer_max sa)
    (Exec.Exec_stats.buffer_max sb);
  Alcotest.(check int)
    (path ^ "/" ^ la ^ ": children")
    (List.length a.Core.Executor.p_children)
    (List.length b.Core.Executor.p_children);
  List.iteri
    (fun i (ca, cb) ->
      check_profiles_equal (Printf.sprintf "%s/%s[%d]" path la i) ca cb)
    (List.combine a.Core.Executor.p_children b.Core.Executor.p_children)

let test_vectorized_profile_parity () =
  let cat = setup_catalog () in
  let order t =
    { Core.Plan.expr = score_of t; direction = Core.Interesting_orders.Desc }
  in
  let scan_filter_topk =
    Core.Plan.Top_k
      {
        k = 25;
        input =
          Core.Plan.Sort
            {
              order = order "A";
              input =
                Core.Plan.Filter
                  {
                    pred = Expr.(Cmp (Ge, score_of "A", cfloat 0.25));
                    input = Core.Plan.Table_scan { table = "A" };
                  };
            };
      }
  in
  let join_sort_topk =
    Core.Plan.Top_k
      {
        k = 15;
        input =
          Core.Plan.Sort
            {
              order =
                {
                  Core.Plan.expr =
                    Expr.(Add (score_of "A", score_of "B"));
                  direction = Core.Interesting_orders.Desc;
                };
              input =
                Core.Plan.Join
                  {
                    algo = Core.Plan.Hash;
                    cond =
                      {
                        Core.Logical.left_table = "A";
                        left_column = "key";
                        right_table = "B";
                        right_column = "key";
                      };
                    left = Core.Plan.Table_scan { table = "A" };
                    right = Core.Plan.Table_scan { table = "B" };
                    left_score = None;
                    right_score = None;
                  };
            };
      }
  in
  List.iter
    (fun (name, plan) ->
      let serial_res, serial = profile_of ~vectorized:false cat plan in
      let vec_res, vec = profile_of ~vectorized:true cat plan in
      Alcotest.(check int)
        (name ^ ": same row count")
        (List.length serial_res.Core.Executor.rows)
        (List.length vec_res.Core.Executor.rows);
      List.iter2
        (fun (t1, s1) (t2, s2) ->
          Alcotest.(check bool)
            (name ^ ": identical rows")
            true
            (Relalg.Tuple.equal t1 t2 && Float.compare s1 s2 = 0))
        serial_res.Core.Executor.rows vec_res.Core.Executor.rows;
      check_profiles_equal name serial vec)
    [ ("scan-filter-topk", scan_filter_topk);
      ("hash-join-sort-topk", join_sort_topk) ]

(* AnyK reports into the node's stats record: every input drained, the
   rows it emitted, and a buffer of at least its survivors. It stays out of
   rank_nodes/nary_nodes, whose sums are the rank-join depth counters. *)
let test_any_k_profile () =
  let cat = setup_catalog () in
  let key t = Expr.col ~relation:t "key" in
  let plan =
    Core.Plan.Top_k
      {
        k = 25;
        input =
          Core.Plan.Any_k
            {
              inputs =
                [ Core.Plan.Table_scan { table = "A" }; Core.Plan.Table_scan { table = "B" } ];
              scores = [ score_of "A"; score_of "B" ];
              keys = [ (0, key "A", key "B") ];
              shape = `Path;
            };
      }
  in
  let metrics = Exec.Metrics.create (Storage.Catalog.io cat) in
  let result = Core.Executor.run ~metrics cat plan in
  let node =
    match
      List.find_opt
        (fun n -> n.Exec.Metrics.label = "AnyK[2]")
        (Exec.Metrics.nodes metrics)
    with
    | Some n -> n
    | None -> Alcotest.fail "no AnyK node in the metrics registry"
  in
  let stats = node.Exec.Metrics.stats in
  Alcotest.(check (array int)) "depths = rows drained" [| 2000; 2000 |]
    (Exec.Exec_stats.depths stats);
  Alcotest.(check int) "rows emitted" 25 (Exec.Exec_stats.emitted stats);
  Alcotest.(check bool) "buffer holds the survivors" true
    (Exec.Exec_stats.buffer_max stats > 2000);
  Alcotest.(check int) "25 rows out" 25 (List.length result.Core.Executor.rows);
  Alcotest.(check int) "not a rank node" 0
    (List.length result.Core.Executor.rank_nodes
    + List.length result.Core.Executor.nary_nodes)

let test_sql_analyze () =
  let cat = setup_catalog () in
  match
    Sqlfront.Sql.analyze cat
      "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY A.score + \
       B.score DESC LIMIT 7"
  with
  | Error e -> Alcotest.failf "analyze failed: %s" e
  | Ok text ->
      Alcotest.(check bool) "rows header" true (contains text "Rows returned: 7");
      Alcotest.(check bool) "depths line" true (contains text "depths: in0=")

let suites =
  [
    ( "exec.metrics",
      [
        Alcotest.test_case "sink mirroring" `Quick test_sink_mirroring;
        Alcotest.test_case "analyze depths = exec stats" `Quick
          test_analyze_depths_equal_exec_stats;
        Alcotest.test_case "analyze rendering" `Quick test_analyze_rendering;
        Alcotest.test_case "io attribution partitions total" `Quick
          test_io_attribution_partitions_total;
        Alcotest.test_case "node json" `Quick test_node_json_shape;
        Alcotest.test_case "vectorized profile parity" `Quick
          test_vectorized_profile_parity;
        Alcotest.test_case "sql analyze" `Quick test_sql_analyze;
        Alcotest.test_case "any-k profile" `Quick test_any_k_profile;
      ] );
  ]
