(* Tests for the concurrent query service: wire protocol, the k-interval
   plan cache (including the optimizer flip across k-star), the service's
   prepared-statement / admission-control / deadline behavior, and a
   fixed-seed slice of the server-mode differential fuzzer. *)

let mk_catalog ?(n = 200) ?(domain = 20) ?(seed = 41) ?(pool_frames = 64)
    tables =
  let cat = Storage.Catalog.create ~pool_frames () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + (31 * i)))
           ~name ~n ~key_domain:domain ()))
    tables;
  cat

let join_sql =
  "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY A.score + \
   B.score DESC LIMIT ?"

let template sql = Result.get_ok (Sqlfront.Sql.template_of_sql sql)

let prepare_at cat tpl k =
  let ast = Result.get_ok (Sqlfront.Sql.instantiate tpl ~k ()) in
  Result.get_ok (Sqlfront.Sql.prepare_ast cat ast)

(* [Plan.describe] with the Top-k limit normalized out: rebinding k
   changes "Top5(...)" to "Top45(...)" while reusing the same shape. *)
let describe (p : Sqlfront.Sql.prepared) =
  let d = Core.Plan.describe p.Sqlfront.Sql.planned.Core.Optimizer.plan in
  match String.index_opt d '(' with
  | Some i when String.length d > 3 && String.sub d 0 3 = "Top" ->
      "Top" ^ String.sub d i (String.length d - i)
  | _ -> d

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  (match ok (Server.Protocol.parse_command "  ping  ") with
  | Server.Protocol.Ping -> ()
  | _ -> Alcotest.fail "expected Ping");
  (match ok (Server.Protocol.parse_command "EXECUTE q1 17") with
  | Server.Protocol.Execute { name = "q1"; k = Some 17 } -> ()
  | _ -> Alcotest.fail "expected Execute q1 17");
  (match ok (Server.Protocol.parse_command "EXECUTE q1") with
  | Server.Protocol.Execute { name = "q1"; k = None } -> ()
  | _ -> Alcotest.fail "expected Execute q1");
  (match ok (Server.Protocol.parse_command "PREPARE p SELECT 1 FROM T") with
  | Server.Protocol.Prepare { name = "p"; sql = "SELECT 1 FROM T" } -> ()
  | _ -> Alcotest.fail "expected Prepare");
  (match ok (Server.Protocol.parse_command "stats session") with
  | Server.Protocol.Stats `Session -> ()
  | _ -> Alcotest.fail "expected Stats Session");
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Server.Protocol.parse_command "FROBNICATE"));
  Alcotest.(check bool)
    "bad k rejected" true
    (Result.is_error (Server.Protocol.parse_command "EXECUTE q four"))

let test_protocol_roundtrip () =
  let resp =
    Server.Protocol.ok_response
      ~fields:[ ("rows", "2"); ("cached", "1") ]
      [ "a\t1"; "b\t2" ]
  in
  match Server.Protocol.render resp with
  | header :: payload ->
      Alcotest.(check int)
        "announced payload" (List.length payload)
        (Server.Protocol.payload_count header);
      let parsed = Result.get_ok (Server.Protocol.parse_header header) in
      Alcotest.(check bool) "ok" true parsed.Server.Protocol.ok;
      Alcotest.(check (option string))
        "cached field" (Some "1")
        (List.assoc_opt "cached" parsed.Server.Protocol.fields);
      let err = Server.Protocol.err_response ~code:"TIMEOUT" "too slow" in
      let eheader = List.hd (Server.Protocol.render err) in
      let eparsed = Result.get_ok (Server.Protocol.parse_header eheader) in
      Alcotest.(check bool) "err not ok" false eparsed.Server.Protocol.ok;
      Alcotest.(check string) "code" "TIMEOUT" eparsed.Server.Protocol.code;
      Alcotest.(check string) "message" "too slow" eparsed.Server.Protocol.message
  | [] -> Alcotest.fail "render produced nothing"

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let cat = mk_catalog [ "A"; "B" ] in
  let cache = Server.Plan_cache.create ~capacity:2 () in
  let store key sql =
    let tpl = template sql in
    Server.Plan_cache.store cache ~key ~epoch:0 (prepare_at cat tpl 3)
  in
  store "t1" "SELECT A.id FROM A ORDER BY A.score DESC LIMIT ?";
  store "t2" "SELECT B.id FROM B ORDER BY B.score DESC LIMIT ?";
  (match Server.Plan_cache.find cache ~key:"t1" ~epoch:0 ~k:(Some 3) with
  | Server.Plan_cache.Hit _ -> ()
  | _ -> Alcotest.fail "t1 should hit");
  (* t2 is now least recently used; a third template evicts it. *)
  store "t3" join_sql;
  (match Server.Plan_cache.find cache ~key:"t2" ~epoch:0 ~k:(Some 3) with
  | Server.Plan_cache.Absent -> ()
  | _ -> Alcotest.fail "t2 should have been LRU-evicted");
  let s = Server.Plan_cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Server.Plan_cache.evictions;
  Alcotest.(check int) "two entries" 2 s.Server.Plan_cache.entries

let test_cache_epoch_invalidation () =
  let cat = mk_catalog [ "A"; "B" ] in
  let cache = Server.Plan_cache.create () in
  let tpl = template join_sql in
  Server.Plan_cache.store cache ~key:"q" ~epoch:3 (prepare_at cat tpl 3);
  (match Server.Plan_cache.find cache ~key:"q" ~epoch:4 ~k:(Some 3) with
  | Server.Plan_cache.Stale -> ()
  | _ -> Alcotest.fail "epoch mismatch should be Stale");
  (* The stale entry is dropped eagerly: a same-epoch retry is a cold miss. *)
  (match Server.Plan_cache.find cache ~key:"q" ~epoch:4 ~k:(Some 3) with
  | Server.Plan_cache.Absent -> ()
  | _ -> Alcotest.fail "stale entry should have been dropped");
  let s = Server.Plan_cache.stats cache in
  Alcotest.(check int) "one invalidation" 1 s.Server.Plan_cache.invalidations

(* The paper's k* crossover, end to end: on the Figure-6 workload the
   optimizer picks a rank-join plan for small k whose validity interval is
   finite; rebinding inside the interval is a cache hit reusing the plan,
   rebinding outside re-optimizes to a different plan shape, and both
   variants then coexist under one template. *)
let test_k_interval_flip () =
  let cat = mk_catalog ~n:5000 ~domain:2000 [ "A"; "B" ] in
  let tpl = template join_sql in
  let small = prepare_at cat tpl 5 in
  let validity = small.Sqlfront.Sql.planned.Core.Optimizer.k_validity in
  let hi =
    match validity.Core.Optimizer.k_hi with
    | Some hi -> hi
    | None -> Alcotest.fail "small-k plan should have a finite k-interval"
  in
  Alcotest.(check bool) "interval contains its own k" true
    (Core.Optimizer.k_in_validity small.Sqlfront.Sql.planned 5);
  Alcotest.(check bool) "crossover below table size" true (hi < 5000);
  let big = prepare_at cat tpl (2 * hi) in
  Alcotest.(check bool)
    "optimizer flips plan shape across k*" true
    (describe small <> describe big);
  (* Now through the cache. *)
  let cache = Server.Plan_cache.create () in
  let epoch = Storage.Catalog.stats_epoch cat in
  Server.Plan_cache.store cache ~key:"q" ~epoch small;
  (match Server.Plan_cache.find cache ~key:"q" ~epoch ~k:(Some hi) with
  | Server.Plan_cache.Hit p ->
      Alcotest.(check string)
        "in-interval rebind reuses the plan shape" (describe small) (describe p);
      Alcotest.(check (option int))
        "rebind pushed the new k" (Some hi)
        p.Sqlfront.Sql.planned.Core.Optimizer.query.Core.Logical.k
  | _ -> Alcotest.fail "k inside the interval should hit");
  (match Server.Plan_cache.find cache ~key:"q" ~epoch ~k:(Some (2 * hi)) with
  | Server.Plan_cache.Interval_miss -> ()
  | _ -> Alcotest.fail "k outside the interval should be an interval miss");
  Server.Plan_cache.store cache ~key:"q" ~epoch big;
  (* Both regimes are now cached as variants of one template. *)
  (match Server.Plan_cache.find cache ~key:"q" ~epoch ~k:(Some 2) with
  | Server.Plan_cache.Hit p ->
      Alcotest.(check string) "small-k variant" (describe small) (describe p)
  | _ -> Alcotest.fail "small k should hit the rank-join variant");
  (match Server.Plan_cache.find cache ~key:"q" ~epoch ~k:(Some (2 * hi)) with
  | Server.Plan_cache.Hit p ->
      Alcotest.(check string) "large-k variant" (describe big) (describe p)
  | _ -> Alcotest.fail "large k should hit the sort-based variant");
  let s = Server.Plan_cache.stats cache in
  Alcotest.(check int) "one reopt-on-rebind" 1 s.Server.Plan_cache.reopt_rebinds;
  Alcotest.(check int) "one entry, two variants" 2 s.Server.Plan_cache.variants

(* ------------------------------------------------------------------ *)
(* Service                                                             *)
(* ------------------------------------------------------------------ *)

let with_service ?(config = Server.Service.default_config) cat f =
  let svc = Server.Service.create ~config cat in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) (fun () -> f svc)

let get_reply = function
  | Ok (r : Server.Service.reply) -> r
  | Error e -> Alcotest.fail (Server.Service.error_message e)

let test_service_prepared_flow () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"q" join_sql with
  | Ok tpl ->
      Alcotest.(check bool)
        "template is k-parameterized" true
        (String.length tpl.Sqlfront.Sql.tpl_text >= 7
        && String.sub tpl.Sqlfront.Sql.tpl_text
             (String.length tpl.Sqlfront.Sql.tpl_text - 7)
             7
           = "LIMIT ?")
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  let r1 = get_reply (Server.Service.execute_prepared s ~k:3 "q") in
  Alcotest.(check int) "k=3 rows" 3 (List.length r1.Server.Service.rows);
  Alcotest.(check bool) "first execution optimizes" false r1.Server.Service.cached;
  let r2 = get_reply (Server.Service.execute_prepared s ~k:3 "q") in
  Alcotest.(check bool) "second execution hits cache" true r2.Server.Service.cached;
  let r3 = get_reply (Server.Service.execute_prepared s ~k:5 "q") in
  Alcotest.(check int) "k=5 rows after rebind" 5
    (List.length r3.Server.Service.rows);
  (match Server.Service.execute_prepared s "nope" with
  | Error (Server.Service.Unknown_prepared _) -> ()
  | _ -> Alcotest.fail "unknown prepared name should be a typed error");
  (* Prepared statements are session-scoped. *)
  let s2 = Server.Service.open_session svc in
  (match Server.Service.execute_prepared s2 "q" with
  | Error (Server.Service.Unknown_prepared _) -> ()
  | _ -> Alcotest.fail "prepared statements must not leak across sessions");
  Server.Service.close_session s2;
  Server.Service.close_session s

let test_service_dml_invalidation () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  let sql = "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 4" in
  ignore (get_reply (Server.Service.query s sql));
  let warm = get_reply (Server.Service.query s sql) in
  Alcotest.(check bool) "warm query cached" true warm.Server.Service.cached;
  let epoch_before = Storage.Catalog.stats_epoch cat in
  let dml = get_reply (Server.Service.query s "INSERT INTO A VALUES (9999, 1, 0.5)") in
  Alcotest.(check (option int)) "one row inserted" (Some 1)
    dml.Server.Service.affected;
  Alcotest.(check bool)
    "DML bumps the stats epoch" true
    (Storage.Catalog.stats_epoch cat > epoch_before);
  let cold = get_reply (Server.Service.query s sql) in
  Alcotest.(check bool)
    "stats change invalidates the cached plan" false cold.Server.Service.cached;
  let cs = Server.Service.cache_stats svc in
  Alcotest.(check bool)
    "invalidation counted" true
    (cs.Server.Plan_cache.invalidations >= 1);
  Server.Service.close_session s

let test_service_timeout () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match
     Server.Service.query s ~timeout_s:(-1.0)
       "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 2"
   with
  | Error Server.Service.Timeout -> ()
  | Ok _ -> Alcotest.fail "expired deadline should not execute"
  | Error e -> Alcotest.fail (Server.Service.error_code e));
  let fields = Server.Service.stats svc in
  Alcotest.(check (option string))
    "timeout counted" (Some "1")
    (List.assoc_opt "timeouts" fields);
  Server.Service.close_session s

let test_service_queue_full () =
  (* domain=5 makes the equijoin huge, so a single worker with a one-slot
     queue is saturated while the other submitters arrive. *)
  let cat = mk_catalog ~n:2000 ~domain:5 [ "A"; "B" ] in
  let config =
    { Server.Service.default_config with workers = 1; queue_capacity = 1 }
  in
  with_service ~config cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  let slow =
    "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY A.score + \
     B.score DESC LIMIT 1000"
  in
  let outcomes = Array.make 8 (Error Server.Service.Shutting_down) in
  let threads =
    List.init (Array.length outcomes) (fun i ->
        Thread.create (fun () -> outcomes.(i) <- Server.Service.query s slow) ())
  in
  List.iter Thread.join threads;
  let shed, completed =
    Array.fold_left
      (fun (shed, completed) -> function
        | Error (Server.Service.Queue_full _) -> (shed + 1, completed)
        | Ok _ -> (shed, completed + 1)
        | Error e -> Alcotest.fail (Server.Service.error_code e))
      (0, 0) outcomes
  in
  Alcotest.(check bool) "some statements shed" true (shed >= 1);
  Alcotest.(check bool) "some statements completed" true (completed >= 1);
  let fields = Server.Service.stats svc in
  Alcotest.(check (option string))
    "shed counter matches" (Some (string_of_int shed))
    (List.assoc_opt "shed" fields);
  Server.Service.close_session s

let test_service_stats_fields () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  ignore (get_reply (Server.Service.query s "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 1"));
  let fields = Server.Service.stats svc in
  List.iter
    (fun key ->
      if List.assoc_opt key fields = None then
        Alcotest.failf "missing server stats field %s" key)
    [
      "queries"; "errors"; "timeouts"; "shed"; "p50_ms"; "p95_ms";
      "cache_hits"; "cache_misses"; "cache_reopt_rebinds"; "cache_hit_rate";
      "queue_depth"; "workers"; "sessions"; "stats_epoch";
    ];
  Alcotest.(check (option string))
    "one session open" (Some "1")
    (List.assoc_opt "sessions" fields);
  let sfields = Server.Service.session_stats s in
  Alcotest.(check (option string))
    "session query count" (Some "1")
    (List.assoc_opt "queries" sfields);
  (* EXPLAIN surfaces the epoch and the k-validity interval. *)
  (match
     Server.Service.explain s
       (String.concat "5" (String.split_on_char '?' join_sql))
   with
  | Error e -> Alcotest.fail (Server.Service.error_message e)
  | Ok text ->
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "explain shows stats epoch" true
        (contains "Catalog stats epoch");
      Alcotest.(check bool) "explain shows k-validity" true
        (contains "Plan valid for k in"));
  Server.Service.close_session s

(* ------------------------------------------------------------------ *)
(* Cursors: FETCH NEXT, bind validation, staleness, deadlines          *)
(* ------------------------------------------------------------------ *)

let test_protocol_fetch_parse () =
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  (match ok (Server.Protocol.parse_command "FETCH q NEXT 10") with
  | Server.Protocol.Fetch { name = "q"; n = 10 } -> ()
  | _ -> Alcotest.fail "expected Fetch q 10");
  (match ok (Server.Protocol.parse_command "fetch q next") with
  | Server.Protocol.Fetch { name = "q"; n = 1 } -> ()
  | _ -> Alcotest.fail "FETCH without a count should default to 1");
  (match ok (Server.Protocol.parse_command "CLOSE q") with
  | Server.Protocol.Close "q" -> ()
  | _ -> Alcotest.fail "expected Close q");
  Alcotest.(check bool)
    "FETCH without NEXT rejected" true
    (Result.is_error (Server.Protocol.parse_command "FETCH q 10"));
  Alcotest.(check bool)
    "FETCH with junk count rejected" true
    (Result.is_error (Server.Protocol.parse_command "FETCH q NEXT ten"));
  Alcotest.(check bool)
    "bare CLOSE rejected" true
    (Result.is_error (Server.Protocol.parse_command "CLOSE"))

(* k = 0 / negative / FETCH n < 1 must be protocol-level bind errors — and
   crucially must be rejected *before* the plan cache is touched, so a bad
   bind can never poison the cache with a k=0 variant (the regression: a
   cached Top-k(0) plan would crash every later rebind). *)
let test_bind_validation_no_cache_poison () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"q" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  (match Server.Service.execute_prepared s ~k:0 "q" with
  | Error (Server.Service.Bind_error _) -> ()
  | Ok _ -> Alcotest.fail "k=0 must be rejected"
  | Error e -> Alcotest.fail ("k=0: " ^ Server.Service.error_code e));
  (match Server.Service.execute_prepared s ~k:(-7) "q" with
  | Error (Server.Service.Bind_error _) -> ()
  | _ -> Alcotest.fail "negative k must be a bind error");
  let cs = Server.Service.cache_stats svc in
  Alcotest.(check int) "bad binds never reached the cache" 0
    (cs.Server.Plan_cache.hits + cs.Server.Plan_cache.misses);
  Alcotest.(check int) "nothing cached" 0 cs.Server.Plan_cache.entries;
  (* The statement is unharmed: a valid bind plans, executes, and caches. *)
  let r1 = get_reply (Server.Service.execute_prepared s ~k:3 "q") in
  Alcotest.(check int) "k=3 rows after bad binds" 3
    (List.length r1.Server.Service.rows);
  let r2 = get_reply (Server.Service.execute_prepared s ~k:3 "q") in
  Alcotest.(check bool) "replay hits the cache" true r2.Server.Service.cached;
  (match Server.Service.fetch s ~name:"q" 0 with
  | Error (Server.Service.Bind_error _) -> ()
  | _ -> Alcotest.fail "FETCH n=0 must be a bind error");
  (match Server.Service.fetch s ~name:"q" (-2) with
  | Error (Server.Service.Bind_error _) -> ()
  | _ -> Alcotest.fail "FETCH n<0 must be a bind error");
  Server.Service.close_session s

(* The cursor contract end to end: EXECUTE k then FETCH NEXT repeatedly
   must reproduce, tuple for tuple, a one-shot execution at the combined
   k. *)
let test_cursor_fetch_prefix () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"cur" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  (match Server.Service.prepare s ~name:"oneshot" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  let r0 = get_reply (Server.Service.execute_prepared s ~k:5 "cur") in
  Alcotest.(check int) "EXECUTE k=5" 5 (List.length r0.Server.Service.rows);
  Alcotest.(check (option string))
    "session counts the open cursor" (Some "1")
    (List.assoc_opt "cursors" (Server.Service.session_stats s));
  let f1 = get_reply (Server.Service.fetch s ~name:"cur" 4) in
  let f2 = get_reply (Server.Service.fetch s ~name:"cur" 6) in
  Alcotest.(check int) "first fetch" 4 (List.length f1.Server.Service.rows);
  Alcotest.(check int) "second fetch" 6 (List.length f2.Server.Service.rows);
  let got =
    r0.Server.Service.rows @ f1.Server.Service.rows @ f2.Server.Service.rows
  in
  let got_scores =
    r0.Server.Service.scores @ f1.Server.Service.scores
    @ f2.Server.Service.scores
  in
  let one = get_reply (Server.Service.execute_prepared s ~k:15 "oneshot") in
  Alcotest.(check int) "one-shot size" 15 (List.length one.Server.Service.rows);
  Alcotest.(check bool) "prefix rows tuple-identical" true
    (List.equal Relalg.Tuple.equal one.Server.Service.rows got);
  Alcotest.(check (list (float 1e-12)))
    "prefix scores identical" one.Server.Service.scores got_scores;
  (match Server.Service.close_cursor s "cur" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Server.Service.error_code e));
  (match Server.Service.fetch s ~name:"cur" 1 with
  | Error (Server.Service.Unknown_cursor _) -> ()
  | _ -> Alcotest.fail "FETCH after CLOSE must be UNKNOWN_CURSOR");
  (match Server.Service.fetch s ~name:"never" 1 with
  | Error (Server.Service.Unknown_cursor _) -> ()
  | _ -> Alcotest.fail "FETCH on an unknown name must be UNKNOWN_CURSOR");
  Server.Service.close_session s

let test_cursor_stale_after_dml () =
  let cat = mk_catalog [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"q" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  ignore (get_reply (Server.Service.execute_prepared s ~k:3 "q"));
  ignore (get_reply (Server.Service.query s "INSERT INTO A VALUES (9999, 1, 0.5)"));
  (match Server.Service.fetch s ~name:"q" 2 with
  | Error (Server.Service.Cursor_stale _) -> ()
  | Ok _ -> Alcotest.fail "FETCH across a stats-epoch bump must be stale"
  | Error e -> Alcotest.fail ("stale: " ^ Server.Service.error_code e));
  (* The stale cursor is dropped, not wedged: re-EXECUTE re-plans and
     fetching resumes. *)
  (match Server.Service.fetch s ~name:"q" 2 with
  | Error (Server.Service.Unknown_cursor _) -> ()
  | _ -> Alcotest.fail "stale cursor must have been dropped");
  ignore (get_reply (Server.Service.execute_prepared s ~k:3 "q"));
  let f = get_reply (Server.Service.fetch s ~name:"q" 2) in
  Alcotest.(check int) "fetch after re-EXECUTE" 2
    (List.length f.Server.Service.rows);
  Server.Service.close_session s

(* Per-table epochs: DML against a table a statement never reads must not
   stale its cursor or invalidate its cached plan. Regression for the
   catalog-wide epoch, under which any write anywhere killed every open
   cursor and cached plan. *)
let test_per_table_epoch_isolation () =
  let cat = mk_catalog [ "A"; "B"; "C" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"q" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  ignore (get_reply (Server.Service.execute_prepared s ~k:3 "q"));
  (* Writes to C — not among the statement's FROM tables. *)
  ignore (get_reply (Server.Service.query s "INSERT INTO C VALUES (9999, 1, 0.5)"));
  let f = get_reply (Server.Service.fetch s ~name:"q" 2) in
  Alcotest.(check int) "cursor survives unrelated DML" 2
    (List.length f.Server.Service.rows);
  let r = get_reply (Server.Service.execute_prepared s ~k:3 "q") in
  Alcotest.(check bool) "cached plan survives unrelated DML" true
    r.Server.Service.cached;
  (* Writes to A — one of its own tables — must still invalidate both. *)
  ignore (get_reply (Server.Service.query s "INSERT INTO A VALUES (9998, 1, 0.5)"));
  (match Server.Service.fetch s ~name:"q" 2 with
  | Error (Server.Service.Cursor_stale _) -> ()
  | Ok _ -> Alcotest.fail "DML on the cursor's own table must stale it"
  | Error e -> Alcotest.fail ("own-table DML: " ^ Server.Service.error_code e));
  let r = get_reply (Server.Service.execute_prepared s ~k:3 "q") in
  Alcotest.(check bool) "own-table DML invalidates the cached plan" false
    r.Server.Service.cached;
  Server.Service.close_session s

(* RANK <table>.<column> OF <value>: protocol parse plus the inline
   order-statistic probe. *)
let test_rank_probe () =
  (match Server.Protocol.parse_command "RANK A.score OF 0.5" with
  | Ok (Server.Protocol.Rank { table = "A"; column = "score"; value; dense }) ->
      Alcotest.(check (float 0.0)) "value" 0.5 value;
      Alcotest.(check bool) "sparse by default" false dense
  | Ok _ -> Alcotest.fail "expected Rank"
  | Error e -> Alcotest.fail e);
  (match Server.Protocol.parse_command "RANK A.score OF 0.5 DENSE" with
  | Ok (Server.Protocol.Rank { dense; _ }) ->
      Alcotest.(check bool) "DENSE suffix parsed" true dense
  | Ok _ -> Alcotest.fail "expected Rank"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "RANK with a junk suffix rejected" true
    (Result.is_error (Server.Protocol.parse_command "RANK A.score OF 0.5 NOPE"));
  Alcotest.(check bool)
    "RANK without OF rejected" true
    (Result.is_error (Server.Protocol.parse_command "RANK A.score 0.5"));
  Alcotest.(check bool)
    "RANK without a dotted column rejected" true
    (Result.is_error (Server.Protocol.parse_command "RANK A OF 0.5"));
  let cat = mk_catalog ~n:50 [ "A" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  let probe v = Server.Service.rank_probe s ~table:"A" ~column:"score" v in
  (match probe 2.0 with
  | Ok (rank, total) ->
      Alcotest.(check (option int)) "above every score" (Some 1) rank;
      Alcotest.(check int) "total counts ranked entries" 50 total
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  (match probe (-1.0) with
  | Ok (rank, _) ->
      Alcotest.(check (option int)) "below every score" (Some 51) rank
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  (match probe Float.nan with
  | Ok (rank, _) -> Alcotest.(check (option int)) "NaN probe" None rank
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  (match Server.Service.rank_probe s ~table:"Z" ~column:"score" 0.5 with
  | Error (Server.Service.Bind_error _) -> ()
  | _ -> Alcotest.fail "unknown table must be a bind error");
  (match Server.Service.rank_probe s ~table:"A" ~column:"id" 0.5 with
  | Error (Server.Service.Plan_error _) -> ()
  | _ -> Alcotest.fail "column without a rank index must be a plan error");
  Server.Service.close_session s

(* Satellite hammer: deadlines firing mid-FETCH (and pre-expired ones)
   must surface as TIMEOUT without wedging the worker pool — afterwards
   the same service must still plan, execute, and fetch normally. *)
let test_cursor_deadline_hammer () =
  let cat = mk_catalog ~n:1500 ~domain:4 [ "A"; "B" ] in
  let config = { Server.Service.default_config with workers = 2 } in
  with_service ~config cat @@ fun svc ->
  let timeouts = Atomic.make 0 in
  let wedged = Atomic.make 0 in
  let hammer i () =
    let s = Server.Service.open_session svc in
    (match Server.Service.prepare s ~name:"h" join_sql with
    | Ok _ -> ()
    | Error _ -> Atomic.incr wedged);
    for round = 1 to 4 do
      (match Server.Service.execute_prepared s ~k:3 "h" with
      | Ok _ | Error Server.Service.Timeout -> ()
      | Error _ -> Atomic.incr wedged);
      (* Alternate pre-expired and near-instant deadlines so some fetches
         are cancelled in the queue and some are interrupted mid-pull. *)
      let timeout_s = if (i + round) mod 2 = 0 then -1.0 else 1e-6 in
      (match Server.Service.fetch s ~timeout_s ~name:"h" 500 with
      | Error Server.Service.Timeout -> Atomic.incr timeouts
      | Ok _ -> ()
      | Error (Server.Service.Unknown_cursor _) -> ()
      | Error _ -> Atomic.incr wedged)
    done;
    Server.Service.close_session s
  in
  let threads = List.init 4 (fun i -> Thread.create (hammer i) ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no unexpected errors" 0 (Atomic.get wedged);
  Alcotest.(check bool) "some deadlines fired mid-fetch" true
    (Atomic.get timeouts > 0);
  (* The pool survived: a fresh statement still runs end to end. *)
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"q" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  let r = get_reply (Server.Service.execute_prepared s ~k:4 "q") in
  Alcotest.(check int) "service alive after hammer" 4
    (List.length r.Server.Service.rows);
  let f = get_reply (Server.Service.fetch s ~name:"q" 4) in
  Alcotest.(check int) "fetch alive after hammer" 4
    (List.length f.Server.Service.rows);
  Server.Service.close_session s

(* RANK ... DENSE: dense numbering counts distinct scores, so a tied
   table separates it from the sparse probe. *)
let test_dense_rank_probe () =
  let cat = Storage.Catalog.create () in
  let schema =
    Relalg.Schema.of_columns
      [
        Relalg.Schema.column "id" Relalg.Value.Tint;
        Relalg.Schema.column "score" Relalg.Value.Tfloat;
      ]
  in
  let tuples =
    List.mapi
      (fun i s -> [| Relalg.Value.Int (i + 1); Relalg.Value.Float s |])
      [ 0.9; 0.9; 0.8; 0.7; 0.7; 0.7; 0.6; 0.5 ]
  in
  ignore (Storage.Catalog.create_table cat "D" schema tuples);
  ignore
    (Storage.Catalog.create_index cat ~name:"d_score" ~table:"D"
       ~key:(Relalg.Expr.col ~relation:"D" "score")
       ());
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  let dense v = Server.Service.rank_probe s ~dense:true ~table:"D" ~column:"score" v in
  let sparse v = Server.Service.rank_probe s ~table:"D" ~column:"score" v in
  (match (sparse 0.7, dense 0.7) with
  | Ok (Some r, total), Ok (Some d, dtotal) ->
      Alcotest.(check int) "sparse rank of 0.7" 4 r;
      Alcotest.(check int) "sparse total" 8 total;
      Alcotest.(check int) "dense rank of 0.7" 3 d;
      Alcotest.(check int) "dense total = distinct scores" 5 dtotal
  | _ -> Alcotest.fail "probe failed");
  (match dense 0.75 with
  | Ok (Some d, _) ->
      Alcotest.(check int) "absent value would open block 3" 3 d
  | _ -> Alcotest.fail "absent-value dense probe failed");
  (match dense Float.nan with
  | Ok (rank, _) -> Alcotest.(check (option int)) "NaN dense probe" None rank
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  Server.Service.close_session s

(* Satellite regression: ERR CURSOR_STALE and ERR QUEUE_FULL replies
   must identify the cursor/statement they refer to, so a client
   multiplexing statements can tell which one failed. *)
let test_error_identifiers () =
  let contains hay needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || scan (i + 1))
    in
    scan 0
  in
  (* Rendered ERR lines carry the identifier in the message. *)
  let stale = Server.Service.Cursor_stale "cur42" in
  Alcotest.(check string) "stale code" "CURSOR_STALE"
    (Server.Service.error_code stale);
  Alcotest.(check bool) "stale message names the cursor" true
    (contains (Server.Service.error_message stale) "cur42");
  let shed = Server.Service.Queue_full "stmt7" in
  Alcotest.(check string) "shed code" "QUEUE_FULL"
    (Server.Service.error_code shed);
  Alcotest.(check bool) "shed message names the statement" true
    (contains (Server.Service.error_message shed) "stmt7");
  (* End to end: a fetch against a DML-staled cursor reports its name. *)
  let cat = mk_catalog ~n:60 [ "A"; "B" ] in
  with_service cat @@ fun svc ->
  let s = Server.Service.open_session svc in
  (match Server.Service.prepare s ~name:"mycur" join_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  ignore (get_reply (Server.Service.execute_prepared s ~k:2 "mycur"));
  (match Server.Service.query s "DELETE FROM A WHERE A.id <= 1" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  (match Server.Service.fetch s ~name:"mycur" 2 with
  | Error (Server.Service.Cursor_stale name) ->
      Alcotest.(check string) "stale error carries the cursor name" "mycur"
        name
  | Ok _ -> Alcotest.fail "expected CURSOR_STALE"
  | Error e -> Alcotest.fail (Server.Service.error_message e));
  Server.Service.close_session s

(* ------------------------------------------------------------------ *)
(* Server-mode fuzzer slice                                            *)
(* ------------------------------------------------------------------ *)

let test_rankcheck_server_slice () =
  let outcome = Check.Rankcheck.run Check.Rankcheck.server ~seed:1 ~cases:3 () in
  (match outcome.Check.Rankcheck.o_failures with
  | [] -> ()
  | f :: _ -> Alcotest.fail f.Check.Rankcheck.f_reason);
  Alcotest.(check bool)
    "executions checked" true
    (outcome.Check.Rankcheck.o_plans >= 3 * 4)

(* Cell text: [Value.to_string] against the [Format] rendering it
   replaced, over edge values and random bit patterns and bytes. *)
let format_cell v =
  let pp fmt = function
    | Relalg.Value.Null -> Format.pp_print_string fmt "NULL"
    | Int x -> Format.pp_print_int fmt x
    | Float x -> Format.fprintf fmt "%g" x
    | Str s -> Format.fprintf fmt "%S" s
    | Bool b -> Format.pp_print_bool fmt b
  in
  Format.asprintf "%a" pp v

let render_values =
  let open Relalg.Value in
  let g = Rkutil.Prng.create 5 in
  [
    Null; Int 0; Int (-1); Int min_int; Int max_int; Float 0.0; Float (-0.0);
    Float nan; Float (Float.neg nan); Float infinity; Float neg_infinity;
    Float 1e300; Float (-1e300); Float 5e-324; Float 0.1; Float 123456789.0;
    Float 1e-5; Str ""; Str "plain"; Str "tab\there \"quoted\" back\\slash\n";
    Str "\000\255\r\x7f"; Str "\xc3\xa9t\xc3\xa9"; Bool true; Bool false;
  ]
  @ List.init 500 (fun _ -> Float (Int64.float_of_bits (Rkutil.Prng.bits64 g)))
  @ List.init 200 (fun _ -> Int (Int64.to_int (Rkutil.Prng.bits64 g)))
  @ List.init 200 (fun _ ->
        Str (String.init (Rkutil.Prng.int g 12) (fun _ -> Char.chr (Rkutil.Prng.int g 256))))

let test_cell_text_matches_format () =
  List.iter
    (fun v ->
      Alcotest.(check string) (format_cell v) (format_cell v) (Relalg.Value.to_string v))
    render_values

(* HEX cell text as the persist codec spelled it with [Printf]. *)
let printf_hex_cell = function
  | Relalg.Value.Null -> "n:"
  | Int i -> Printf.sprintf "i:%d" i
  | Float f -> Printf.sprintf "f:%h" f
  | Str s -> "s:" ^ String.escaped s
  | Bool b -> Printf.sprintf "b:%b" b

(* The list-based row renderer [render_reply] used before it built rows in
   one buffer, with [Format] TEXT cells and [Printf] HEX cells and score
   trailers: independent of the codec writers it checks. *)
let reference_reply codec (r : Server.Service.reply) =
  let cell = match codec with `Text -> format_cell | `Hex -> printf_hex_cell in
  let score_cell s =
    match codec with
    | `Text -> Printf.sprintf "score=%.6f" s
    | `Hex -> Printf.sprintf "score=%h" s
  in
  let fields =
    [
      ("cached", if r.Server.Service.cached then "1" else "0");
      ("reoptimized", if r.Server.Service.reoptimized then "1" else "0");
      ("latency_ms", Printf.sprintf "%.3f" (r.Server.Service.latency_s *. 1000.0));
    ]
  in
  let header =
    if r.Server.Service.columns = [] then []
    else [ String.concat "\t" r.Server.Service.columns ]
  in
  let scores =
    match r.Server.Service.scores with
    | [] -> List.map (fun _ -> None) r.Server.Service.rows
    | ss -> List.map Option.some ss
  in
  let rows =
    List.map2
      (fun row score ->
        let cells = Array.to_list (Array.map cell row) in
        let cells =
          match score with
          | None -> cells
          | Some s -> cells @ [ score_cell s ]
        in
        String.concat "\t" cells)
      r.Server.Service.rows scores
  in
  match r.Server.Service.affected with
  | Some n ->
      Server.Protocol.ok_response ~fields:(("affected", string_of_int n) :: fields) []
  | None ->
      Server.Protocol.ok_response
        ~fields:(("rows", string_of_int (List.length r.Server.Service.rows)) :: fields)
        (header @ rows)

let test_render_reply_matches_reference () =
  let vals = Array.of_list render_values in
  let g = Rkutil.Prng.create 9 in
  let row w = Array.init w (fun _ -> Rkutil.Prng.pick g vals) in
  let reply ~columns ~rows ~scored =
    {
      Server.Service.columns;
      rows;
      scores =
        (if scored then List.map (fun _ -> Rkutil.Prng.pick g [| 0.5; -0.0; nan; 1e300; 1.0 /. 3.0 |]) rows
         else []);
      affected = None;
      cached = Rkutil.Prng.bool g;
      reoptimized = false;
      latency_s = 0.00123;
    }
  in
  let replies =
    [
      reply ~columns:[] ~rows:[] ~scored:false;
      reply ~columns:[ "A.id"; "B.id" ] ~rows:[] ~scored:true;
      reply ~columns:[ "A.id" ] ~rows:(List.init 5 (fun _ -> row 1)) ~scored:false;
      reply ~columns:[ "A.id" ] ~rows:(List.init 5 (fun _ -> row 1)) ~scored:true;
      reply ~columns:[ "A.id"; "B.id"; "C.id" ] ~rows:(List.init 40 (fun _ -> row 3)) ~scored:false;
      reply ~columns:[ "A.id"; "B.id" ] ~rows:(List.init 40 (fun _ -> row 2)) ~scored:true;
      reply ~columns:[] ~rows:(List.init 7 (fun _ -> [||])) ~scored:true;
      reply ~columns:[] ~rows:(List.init 3 (fun _ -> [||])) ~scored:false;
      { (reply ~columns:[] ~rows:[] ~scored:false) with affected = Some 3 };
    ]
  in
  List.iter
    (fun codec ->
      List.iteri
        (fun i r ->
          Alcotest.(check (list string))
            (Printf.sprintf "reply %d" i)
            (Server.Protocol.render (reference_reply codec r))
            (Server.Protocol.render (Server.Protocol.render_reply ~codec r)))
        replies)
    [ `Text; `Hex ]

let suites =
  [
    ( "server protocol",
      [
        Alcotest.test_case "parse commands" `Quick test_protocol_parse;
        Alcotest.test_case "response round-trip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "cell text = Format rendering" `Quick
          test_cell_text_matches_format;
        Alcotest.test_case "render_reply = list renderer" `Quick
          test_render_reply_matches_reference;
      ] );
    ( "plan cache",
      [
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "epoch invalidation" `Quick
          test_cache_epoch_invalidation;
        Alcotest.test_case "k-interval flip across k*" `Slow
          test_k_interval_flip;
      ] );
    ( "query service",
      [
        Alcotest.test_case "prepared statement flow" `Quick
          test_service_prepared_flow;
        Alcotest.test_case "DML invalidates cached plans" `Quick
          test_service_dml_invalidation;
        Alcotest.test_case "deadline: expired statements time out" `Quick
          test_service_timeout;
        Alcotest.test_case "admission control sheds on full queue" `Slow
          test_service_queue_full;
        Alcotest.test_case "stats and explain surfaces" `Quick
          test_service_stats_fields;
      ] );
    ( "cursors",
      [
        Alcotest.test_case "FETCH/CLOSE parse" `Quick test_protocol_fetch_parse;
        Alcotest.test_case "bind validation cannot poison the cache" `Quick
          test_bind_validation_no_cache_poison;
        Alcotest.test_case "EXECUTE + FETCH prefixes = one-shot" `Quick
          test_cursor_fetch_prefix;
        Alcotest.test_case "stats-epoch bump stales the cursor" `Quick
          test_cursor_stale_after_dml;
        Alcotest.test_case "per-table epochs isolate unrelated DML" `Quick
          test_per_table_epoch_isolation;
        Alcotest.test_case "RANK probe: parse + order-statistic descent"
          `Quick test_rank_probe;
        Alcotest.test_case "RANK probe: DENSE counts distinct scores" `Quick
          test_dense_rank_probe;
        Alcotest.test_case "ERR replies carry cursor/statement identifiers"
          `Quick test_error_identifiers;
        Alcotest.test_case "deadline mid-FETCH does not wedge the pool" `Slow
          test_cursor_deadline_hammer;
      ] );
    ( "server rankcheck",
      [
        Alcotest.test_case "server-mode differential slice" `Slow
          test_rankcheck_server_slice;
      ] );
  ]
