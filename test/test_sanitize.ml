(* Lockcheck sanitizer: mutation tests proving each LK rule fires exactly
   on a hand-corrupted held-set / edge-set (the rules are pure functions,
   so no real deadlock needs constructing), engine integration tests over
   the reserved test.outer/test.inner latches, and the concurrency
   regressions the analyzer exists to guard: graceful SHUTDOWN draining,
   exception-path latch release, and SHARD ADD racing a gather cursor. *)

module L = Rkutil.Latch
module R = Sanitize.Rules
module D = Lint.Diag

let rules_of diags = List.map (fun (d : D.t) -> d.D.rule) diags

(* Assert that exactly [expected] fired — one diagnostic, right rule. *)
let fires expected diags =
  Alcotest.(check (list string))
    (Printf.sprintf "exactly %s fires" expected)
    [ expected ] (rules_of diags)

let clean what diags =
  match diags with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s should be clean, got: %s" what (D.to_string d)

(* ------------------------------------------------------------------ *)
(* Rule mutation tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_lk01_cycle () =
  fires "LK01-cycle" (R.cycle_rule ~edges:[ ("A", "B"); ("B", "A") ]);
  clean "acyclic graph"
    (R.cycle_rule ~edges:[ ("A", "B"); ("B", "C"); ("A", "C") ])

let test_lk01_canonical_dedup () =
  (* The same 3-cycle reachable from every node must report once. *)
  fires "LK01-cycle"
    (R.cycle_rule ~edges:[ ("B", "C"); ("C", "A"); ("A", "B") ])

let test_lk02_rank_inversion () =
  let held = [ R.holder ~name:"storage.bufpool.shard" ~inst:1 ~rank:70 () ] in
  fires "LK02-order"
    (R.check_acquire ~where:"t" ~held ~name:"server.plan_cache" ~inst:2
       ~rank:40 ~mode:L.Exclusive);
  (* Equal rank, distinct instance (two shards of one site) is also an
     inversion: no thread may nest two same-rank latches. *)
  fires "LK02-order"
    (R.check_acquire ~where:"t" ~held ~name:"storage.bufpool.shard" ~inst:2
       ~rank:70 ~mode:L.Exclusive);
  clean "descending-rank nesting"
    (R.check_acquire ~where:"t"
       ~held:[ R.holder ~name:"server.plan_cache" ~inst:2 ~rank:40 () ]
       ~name:"storage.bufpool.shard" ~inst:1 ~rank:70 ~mode:L.Exclusive)

let test_lk02_reentrant () =
  let held = [ R.holder ~name:"server.metrics" ~inst:7 ~rank:50 () ] in
  fires "LK02-order"
    (R.check_acquire ~where:"t" ~held ~name:"server.metrics" ~inst:7 ~rank:50
       ~mode:L.Exclusive)

let test_lk02_table () =
  let declared = Sanitize.Model.table in
  clean "declared site"
    (R.table_rule ~declared
       ~observed:[ ("storage.bufpool.shard", 70, L.Short) ]);
  fires "LK02-order"
    (R.table_rule ~declared ~observed:[ ("rogue.lock", 1, L.Short) ]);
  fires "LK02-order"
    (R.table_rule ~declared ~observed:[ ("server.plan_cache", 41, L.Short) ]);
  fires "LK02-order"
    (R.table_rule ~declared ~observed:[ ("server.plan_cache", 40, L.Long) ])

let test_lk03_blocking () =
  let latch = R.holder ~name:"storage.bufpool.shard" ~inst:3 ~rank:70 () in
  fires "LK03-blocking"
    (R.check_blocking ~where:"t" ~held:[ latch ] ~self:None ~what:"socket");
  clean "self-exempt page fault"
    (R.check_blocking ~where:"t" ~held:[ latch ] ~self:(Some 3)
       ~what:"page_fault");
  clean "Long-class lock may block"
    (R.check_blocking ~where:"t"
       ~held:[ R.holder ~cls:L.Long ~name:"shard.coordinator" ~inst:4 ~rank:10 () ]
       ~self:None ~what:"shard rpc")

let test_lk04_guard () =
  let guard = R.holder ~name:"server.plan_cache" ~inst:5 ~rank:40 () in
  clean "guard held"
    (R.check_guard ~where:"t" ~held:[ guard ] ~guards:[ 5 ]
       ~what:"plan_cache.table");
  fires "LK04-guard"
    (R.check_guard ~where:"t" ~held:[ guard ] ~guards:[ 9 ]
       ~what:"plan_cache.table");
  fires "LK04-guard"
    (R.check_guard ~where:"t" ~held:[] ~guards:[ 5 ] ~what:"plan_cache.table");
  (* A structure registered with no guards is a registration bug. *)
  fires "LK04-guard"
    (R.check_guard ~where:"t" ~held:[ guard ] ~guards:[] ~what:"orphan")

let test_lk05_upgrade () =
  let held =
    [ R.holder ~mode:L.Shared ~name:"server.catalog.rwlock" ~inst:3 ~rank:20 () ]
  in
  (* Upgrade must report LK05, not the generic re-entrancy LK02. *)
  fires "LK05-upgrade"
    (R.check_acquire ~where:"t" ~held ~name:"server.catalog.rwlock" ~inst:3
       ~rank:20 ~mode:L.Exclusive)

let test_lk06_leak () =
  let held =
    [
      R.holder ~name:"server.session" ~inst:1 ~rank:30 ();
      R.holder ~name:"server.metrics" ~inst:2 ~rank:50 ();
    ]
  in
  let diags = R.check_quiesce ~where:"t" ~held ~label:"job end" in
  Alcotest.(check (list string))
    "one LK06 per leaked latch"
    [ "LK06-leak"; "LK06-leak" ] (rules_of diags);
  clean "empty held-set" (R.check_quiesce ~where:"t" ~held:[] ~label:"job end")

let test_lk07_release () =
  let h = R.holder ~name:"server.metrics" ~inst:1 ~rank:50 () in
  let remaining, diags, popped =
    R.check_release ~where:"t" ~held:[ h ] ~name:"server.metrics" ~inst:1
      ~mode:L.Exclusive
  in
  clean "paired release" diags;
  Alcotest.(check int) "holder popped" 0 (List.length remaining);
  Alcotest.(check bool) "popped for hold accounting" true (popped <> None);
  (* Double release: the second one finds nothing to pop. *)
  let remaining, diags, popped =
    R.check_release ~where:"t" ~held:remaining ~name:"server.metrics" ~inst:1
      ~mode:L.Exclusive
  in
  fires "LK07-release" diags;
  Alcotest.(check bool) "nothing popped" true (popped = None && remaining = []);
  (* Non-LIFO release (rwlock readers) is legal. *)
  let older = R.holder ~name:"server.plan_cache" ~inst:2 ~rank:40 () in
  let remaining, diags, _ =
    R.check_release ~where:"t" ~held:[ h; older ] ~name:"server.plan_cache"
      ~inst:2 ~mode:L.Exclusive
  in
  clean "non-LIFO release" diags;
  Alcotest.(check int) "newer holder survives" 1 (List.length remaining)

let test_lk08_holdtime () =
  let diags = R.hold_rule ~holds:[ ("server.metrics", L.Short, 2.0) ] in
  fires "LK08-holdtime" diags;
  (match diags with
  | [ d ] ->
      Alcotest.(check bool) "warning severity" true (d.D.severity = D.Warning)
  | _ -> Alcotest.fail "expected one diagnostic");
  clean "short hold under limit"
    (R.hold_rule ~holds:[ ("server.metrics", L.Short, 0.5) ]);
  clean "Long-class lock held for seconds"
    (R.hold_rule ~holds:[ ("shard.coordinator", L.Long, 2.0) ])

(* ------------------------------------------------------------------ *)
(* Engine integration over the reserved test latches                   *)
(* ------------------------------------------------------------------ *)

let outer () = L.create ~name:"test.outer" ~rank:100 ()
let inner () = L.create ~name:"test.inner" ~rank:110 ()

let test_engine_clean_nesting () =
  let (), su, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () and i = inner () in
        L.protect o (fun () -> L.protect i (fun () -> ()));
        L.quiesce "test")
  in
  clean "well-ordered nesting" diags;
  Alcotest.(check bool) "events recorded" true (su.Sanitize.Trace.su_events > 0);
  Alcotest.(check bool)
    "lock-order edge observed" true
    (List.mem ("test.outer", "test.inner") su.Sanitize.Trace.su_edges);
  Alcotest.(check bool) "hooks removed after checked" false
    (Sanitize.Engine.enabled ())

let test_engine_rank_inversion () =
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () and i = inner () in
        L.protect i (fun () -> L.protect o (fun () -> ())))
  in
  fires "LK02-order" diags

let test_engine_cycle () =
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () and i = inner () in
        L.protect o (fun () -> L.protect i (fun () -> ()));
        L.protect i (fun () -> L.protect o (fun () -> ())))
  in
  (* The inverted pass trips LK02 online and closes an LK01 cycle. *)
  Alcotest.(check bool) "cycle reported" true
    (List.mem "LK01-cycle" (rules_of diags));
  Alcotest.(check bool) "inversion reported" true
    (List.mem "LK02-order" (rules_of diags))

let test_engine_blocking () =
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () in
        L.protect o (fun () -> L.blocking "test.io"))
  in
  fires "LK03-blocking" diags;
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () in
        L.protect o (fun () -> L.blocking ~self:o "test.io"))
  in
  clean "self-exempt blocking" diags

let test_engine_guard () =
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () in
        L.protect o (fun () -> L.guarded o "test.guarded"))
  in
  clean "guarded access under its latch" diags;
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () in
        L.guarded o "test.guarded")
  in
  fires "LK04-guard" diags;
  let (), _, diags =
    Sanitize.Engine.checked (fun () -> L.guarded (outer ()) "test.unregistered")
  in
  fires "LK04-guard" diags

let test_engine_leak () =
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () in
        L.lock o;
        L.quiesce "test.job";
        L.unlock o)
  in
  fires "LK06-leak" diags

(* The LK06 fix in miniature: an exception unwinding through
   [Latch.protect] must release the latch, so the next quiesce point is
   clean. A bare lock/raise/unlock would leak. *)
let test_engine_protect_unwinds () =
  let (), _, diags =
    Sanitize.Engine.checked (fun () ->
        let o = outer () in
        (try L.protect o (fun () -> raise Exit) with Exit -> ());
        L.quiesce "test.job")
  in
  clean "exception unwind through protect" diags

let test_engine_off_by_default () =
  Alcotest.(check bool) "hooks absent" false (Sanitize.Engine.enabled ());
  (* Uninstrumented operation: plain mutex semantics, nothing recorded. *)
  let o = outer () in
  L.protect o (fun () -> ());
  L.blocking "no-op";
  L.quiesce "no-op";
  Alcotest.(check bool) "still absent" false (Sanitize.Engine.enabled ())

(* ------------------------------------------------------------------ *)
(* Graceful shutdown: in-flight statements drain, new ones are refused *)
(* ------------------------------------------------------------------ *)

let mk_catalog ?(n = 200) ?(domain = 20) ?(seed = 41) tables =
  let cat = Storage.Catalog.create ~pool_frames:64 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + (31 * i)))
           ~name ~n ~key_domain:domain ()))
    tables;
  cat

let slow_join_sql =
  "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY A.score + \
   B.score DESC LIMIT 400"

let test_service_drain () =
  let cat = mk_catalog ~n:800 ~domain:10 [ "A"; "B" ] in
  let config = { Server.Service.default_config with workers = 2 } in
  let svc = Server.Service.create ~config cat in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let s1 = Server.Service.open_session svc in
  let s2 = Server.Service.open_session svc in
  let result = ref None in
  let th =
    Thread.create (fun () -> result := Some (Server.Service.query s1 slow_join_sql)) ()
  in
  Unix.sleepf 0.005;
  Server.Service.begin_drain svc;
  (* Once draining, new statements bounce with SHUTDOWN... *)
  (match Server.Service.query s2 "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 1" with
  | Error Server.Service.Shutting_down -> ()
  | Ok _ -> Alcotest.fail "statement admitted after begin_drain"
  | Error e -> Alcotest.failf "unexpected: %s" (Server.Service.error_message e));
  (* ...but the admitted one keeps its worker and completes. *)
  Alcotest.(check bool) "drained" true (Server.Service.drain ~timeout_s:10.0 svc);
  Thread.join th;
  (match !result with
  | Some (Ok r) ->
      Alcotest.(check int) "in-flight statement answered in full" 400
        (List.length r.Server.Service.rows)
  | Some (Error e) -> Alcotest.failf "in-flight statement lost: %s"
                        (Server.Service.error_message e)
  | None -> Alcotest.fail "worker thread produced nothing");
  Alcotest.(check int) "nothing in flight" 0 (Server.Service.inflight svc);
  Server.Service.close_session s1;
  Server.Service.close_session s2

let test_socket_shutdown_drains () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankopt-drain-%d.sock" (Unix.getpid ()))
  in
  let cat = mk_catalog ~n:800 ~domain:10 [ "A"; "B" ] in
  let ep = Server.Listener.Unix_socket path in
  let config = { Server.Service.default_config with workers = 2 } in
  let srv = Server.Listener.start ~config ep cat in
  let reply = ref None in
  let th =
    Thread.create
      (fun () ->
        let c = Server.Client.connect ep in
        reply := Some (Server.Client.request c ("QUERY " ^ slow_join_sql));
        Server.Client.close c)
      ()
  in
  Unix.sleepf 0.005;
  let c2 = Server.Client.connect ep in
  (match Server.Client.request c2 "SHUTDOWN" with
  | Ok r -> Alcotest.(check bool) "SHUTDOWN acknowledged" true r.Server.Protocol.ok
  | Error e -> Alcotest.failf "shutdown request: %s" e);
  Server.Client.close c2;
  Thread.join th;
  (* The statement racing the SHUTDOWN still received its reply. *)
  (match !reply with
  | Some (Ok r) ->
      Alcotest.(check bool) "in-flight statement answered" true
        r.Server.Protocol.ok
  | Some (Error e) -> Alcotest.failf "in-flight reply lost: %s" e
  | None -> Alcotest.fail "client thread produced nothing");
  Server.Listener.wait srv;
  (* Fully stopped: the socket no longer accepts. *)
  (match Server.Client.connect ep with
  | _ -> Alcotest.fail "listener still accepting after SHUTDOWN"
  | exception _ -> ());
  try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Exception-path release: an interrupted statement must not leak any   *)
(* latch (this deadlocked the pool before the Fun.protect fix)          *)
(* ------------------------------------------------------------------ *)

let test_interrupt_releases_latches () =
  let cat = mk_catalog ~n:1500 ~domain:8 [ "A"; "B" ] in
  let config = { Server.Service.default_config with workers = 2 } in
  let (), su, diags =
    Sanitize.Engine.checked (fun () ->
        let svc = Server.Service.create ~config cat in
        Fun.protect ~finally:(fun () -> Server.Service.shutdown svc)
        @@ fun () ->
        let s = Server.Service.open_session svc in
        (match Server.Service.query s ~timeout_s:0.002 slow_join_sql with
        | Error Server.Service.Timeout -> ()
        | Ok _ -> () (* beat the deadline; the unwind path just didn't fire *)
        | Error e ->
            Alcotest.failf "unexpected: %s" (Server.Service.error_message e));
        Server.Service.close_session s)
  in
  Alcotest.(check bool) "events recorded" true (su.Sanitize.Trace.su_events > 0);
  clean "interrupted statement" diags

(* ------------------------------------------------------------------ *)
(* SHARD ADD racing a gather cursor: stale, never wrong                 *)
(* ------------------------------------------------------------------ *)

module C = Shard.Coordinator

let test_shard_add_races_fetch () =
  let cat = mk_catalog ~n:150 ~domain:12 [ "A"; "B" ] in
  let cl = Shard.Cluster.start ~n:2 cat in
  Fun.protect ~finally:(fun () -> Shard.Cluster.stop cl) @@ fun () ->
  let coord = Shard.Cluster.coordinator cl in
  let ses = C.open_session coord in
  Fun.protect ~finally:(fun () -> C.close_session ses) @@ fun () ->
  let reference =
    match
      Sqlfront.Sql.query (C.mirror coord)
        "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 60"
    with
    | Ok a -> List.map (fun row -> row.(0)) a.Sqlfront.Sql.rows
    | Error e -> Alcotest.failf "reference: %s" e
  in
  (match C.prepare ses ~name:"top" "SELECT A.id FROM A ORDER BY A.score DESC LIMIT ?" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prepare: %s" (Server.Service.error_message e));
  let got = ref [] in
  (match C.execute_prepared ses ~k:4 "top" with
  | Ok r -> got := r.C.rows
  | Error e -> Alcotest.failf "execute: %s" (Server.Service.error_message e));
  (* Fetch pages off the gather cursor while the main thread repartitions
     the cluster under it. Every page must be either correct continuation
     rows or ERR CURSOR_STALE — never rows from the old partitioning. *)
  let saw_stale = ref false in
  let fetcher () =
    let continue = ref true in
    let budget = ref 20 in
    while !continue && !budget > 0 do
      decr budget;
      match C.fetch ses ~name:"top" 2 with
      | Ok r ->
          if r.C.rows = [] then continue := false
          else got := !got @ r.C.rows
      | Error (Server.Service.Cursor_stale "top") ->
          saw_stale := true;
          continue := false
      | Error (Server.Service.Unknown_cursor _) -> continue := false
      | Error e ->
          Alcotest.failf "fetch: %s" (Server.Service.error_message e)
    done
  in
  let th = Thread.create fetcher () in
  (match C.shard_add coord "" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "shard add: %s" msg);
  Thread.join th;
  Alcotest.(check int) "three shards" 3 (Shard.Cluster.n_shards cl);
  (* No stale row: everything handed out is a prefix of the true top-k. *)
  List.iteri
    (fun i row ->
      match List.nth_opt reference i with
      | Some want ->
          if Relalg.Value.compare want row.(0) <> 0 then
            Alcotest.failf "row %d diverged after repartition race" i
      | None -> Alcotest.failf "more rows than the reference top-60")
    !got;
  (* Deterministic epoch check: a cursor opened before an add is stale
     after it, and the plan cache re-optimizes for the new epoch. *)
  (match C.execute_prepared ses ~k:3 "top" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "re-execute: %s" (Server.Service.error_message e));
  (match C.shard_add coord "" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "second shard add: %s" msg);
  (match C.fetch ses ~name:"top" 2 with
  | Error (Server.Service.Cursor_stale "top") -> ()
  | Ok _ -> Alcotest.fail "fetch across an epoch bump must be stale"
  | Error e -> Alcotest.failf "unexpected: %s" (Server.Service.error_message e));
  (match C.execute_prepared ses ~k:3 "top" with
  | Ok r ->
      List.iteri
        (fun i row ->
          match List.nth_opt reference i with
          | Some want ->
              if Relalg.Value.compare want row.(0) <> 0 then
                Alcotest.failf "post-add row %d diverged" i
          | None -> Alcotest.fail "post-add overflow")
        r.C.rows
  | Error e -> Alcotest.failf "post-add execute: %s" (Server.Service.error_message e))

let suites =
  [
    ( "lockcheck rules",
      [
        Alcotest.test_case "LK01 cycle" `Quick test_lk01_cycle;
        Alcotest.test_case "LK01 canonical dedup" `Quick
          test_lk01_canonical_dedup;
        Alcotest.test_case "LK02 rank inversion" `Quick test_lk02_rank_inversion;
        Alcotest.test_case "LK02 re-entrant" `Quick test_lk02_reentrant;
        Alcotest.test_case "LK02 table consistency" `Quick test_lk02_table;
        Alcotest.test_case "LK03 blocking under latch" `Quick test_lk03_blocking;
        Alcotest.test_case "LK04 guard bypass" `Quick test_lk04_guard;
        Alcotest.test_case "LK05 read-write upgrade" `Quick test_lk05_upgrade;
        Alcotest.test_case "LK06 leak at quiesce" `Quick test_lk06_leak;
        Alcotest.test_case "LK07 double release" `Quick test_lk07_release;
        Alcotest.test_case "LK08 hold-time outlier" `Quick test_lk08_holdtime;
      ] );
    ( "lockcheck engine",
      [
        Alcotest.test_case "clean nesting" `Quick test_engine_clean_nesting;
        Alcotest.test_case "rank inversion detected" `Quick
          test_engine_rank_inversion;
        Alcotest.test_case "cycle detected" `Quick test_engine_cycle;
        Alcotest.test_case "blocking detected" `Quick test_engine_blocking;
        Alcotest.test_case "guard audit" `Quick test_engine_guard;
        Alcotest.test_case "leak detected" `Quick test_engine_leak;
        Alcotest.test_case "protect releases on unwind" `Quick
          test_engine_protect_unwinds;
        Alcotest.test_case "zero-cost when not installed" `Quick
          test_engine_off_by_default;
      ] );
    ( "shutdown and races",
      [
        Alcotest.test_case "service drain completes in-flight" `Quick
          test_service_drain;
        Alcotest.test_case "socket SHUTDOWN drains" `Quick
          test_socket_shutdown_drains;
        Alcotest.test_case "interrupt releases latches" `Quick
          test_interrupt_releases_latches;
        Alcotest.test_case "SHARD ADD races gather fetch" `Quick
          test_shard_add_races_fetch;
      ] );
  ]
