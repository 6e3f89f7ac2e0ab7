(* Domain-based hammer tests for the storage structures the query service
   shares across its worker pool: Io_stats counters must not lose updates,
   and the buffer pool must keep its accounting and frame bound under
   concurrent access. *)

open Storage

let domains = 4

let spawn_all n f =
  let ds = List.init n (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

let test_io_stats_no_lost_updates () =
  let io = Io_stats.create () in
  let per_domain = 25_000 in
  spawn_all domains (fun _ ->
      for _ = 1 to per_domain do
        Io_stats.add_page_read io;
        Io_stats.add_pool_hit io;
        Io_stats.add_tuples_read io 3
      done);
  let snap = Io_stats.snapshot io in
  Alcotest.(check int)
    "page reads" (domains * per_domain) snap.Io_stats.page_reads;
  Alcotest.(check int)
    "pool hits" (domains * per_domain) snap.Io_stats.pool_hits;
  Alcotest.(check int)
    "tuples read"
    (domains * per_domain * 3)
    snap.Io_stats.tuples_read

let test_pool_concurrent_gets () =
  let io = Io_stats.create () in
  let frames = 8 and pages = 32 in
  let pool = Buffer_pool.create ~frames io in
  let ids =
    List.init pages (fun _ ->
        Page.id (Buffer_pool.alloc_page pool ~capacity:4))
  in
  Buffer_pool.flush pool;
  let before = Io_stats.snapshot io in
  let per_domain = 2_000 in
  spawn_all domains (fun d ->
      let prng = Rkutil.Prng.create (100 + d) in
      for _ = 1 to per_domain do
        let id = List.nth ids (Rkutil.Prng.int prng pages) in
        let page = Buffer_pool.get pool id in
        (* The frame table must hand back the page that was asked for even
           while other domains force evictions. *)
        if Page.id page <> id then
          Alcotest.failf "got page %d, wanted %d" (Page.id page) id
      done);
  let d = Io_stats.diff (Io_stats.snapshot io) before in
  Alcotest.(check bool)
    "resident within frame bound" true
    (Buffer_pool.resident pool <= frames);
  (* Every access is either a hit or a (miss) read — nothing lost, nothing
     double-counted. *)
  Alcotest.(check int)
    "hits + reads = accesses"
    (domains * per_domain)
    (d.Io_stats.pool_hits + d.Io_stats.page_reads);
  (* All pages were clean after the flush and only read: a double eviction
     (or eviction of a frame mid-insert) would surface as a spurious
     write-back. *)
  Alcotest.(check int) "no writes of clean pages" 0 d.Io_stats.page_writes

let test_pool_concurrent_dirty () =
  let io = Io_stats.create () in
  let frames = 4 and pages = 16 in
  let pool = Buffer_pool.create ~frames io in
  let ids =
    List.init pages (fun _ ->
        Page.id (Buffer_pool.alloc_page pool ~capacity:4))
  in
  Buffer_pool.flush pool;
  let per_domain = 1_000 in
  spawn_all domains (fun d ->
      let prng = Rkutil.Prng.create (200 + d) in
      for _ = 1 to per_domain do
        let id = List.nth ids (Rkutil.Prng.int prng pages) in
        ignore (Buffer_pool.get pool id);
        if Rkutil.Prng.int prng 4 = 0 then Buffer_pool.mark_dirty pool id
      done);
  Buffer_pool.flush pool;
  Alcotest.(check bool)
    "resident within frame bound" true
    (Buffer_pool.resident pool <= frames);
  (* Survival (no torn frame table, no deadlock) plus the bound is the
     contract; per-access accounting is covered by the read-only test. *)
  Alcotest.(check pass) "no crash under concurrent dirtying" () ()

let test_catalog_stats_epoch () =
  let cat = Catalog.create () in
  let e0 = Catalog.stats_epoch cat in
  let schema =
    Relalg.Schema.of_columns
      [
        Relalg.Schema.column "id" Relalg.Value.Tint;
        Relalg.Schema.column "score" Relalg.Value.Tfloat;
      ]
  in
  let rows =
    List.init 20 (fun i ->
        Relalg.Tuple.make
          [ Relalg.Value.Int i; Relalg.Value.Float (float_of_int i /. 20.) ])
  in
  ignore (Catalog.create_table cat "T" schema rows);
  let e1 = Catalog.stats_epoch cat in
  Alcotest.(check bool) "create_table bumps epoch" true (e1 > e0);
  ignore (Catalog.analyze cat "T");
  let e2 = Catalog.stats_epoch cat in
  Alcotest.(check bool) "analyze bumps epoch" true (e2 > e1)

(* ------------------------------------------------------------------ *)
(* Wire-protocol framing under adversarial and concurrent clients      *)
(* ------------------------------------------------------------------ *)

let with_listener f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankopt-frame-%d.sock" (Unix.getpid ()))
  in
  let cat = Catalog.create () in
  ignore
    (Workload.Generator.load_scored_table cat
       (Rkutil.Prng.create 7)
       ~name:"A" ~n:120 ~key_domain:10 ());
  let srv = Server.Listener.start (Server.Listener.Unix_socket path) cat in
  Fun.protect
    ~finally:(fun () ->
      Server.Listener.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Server.Listener.Unix_socket path))

(* A client that hangs up in the middle of a large reply must cost only
   its own connection: the server's write fails with EPIPE instead of
   SIGPIPE killing the process, and the next session is answered. The
   default disposition is restored first, so the listener itself has to
   ignore the signal. *)
let test_peer_hangup_mid_reply () =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankopt-pipe-%d.sock" (Unix.getpid ()))
  in
  let cat = Catalog.create () in
  ignore
    (Workload.Generator.load_scored_table cat
       (Rkutil.Prng.create 11)
       ~name:"A" ~n:40_000 ~key_domain:10 ());
  let ep = Server.Listener.Unix_socket path in
  let srv = Server.Listener.start ep cat in
  Fun.protect
    ~finally:(fun () ->
      Server.Listener.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* about 1 MB of rows: far more than the socket buffers hold *)
      let q =
        "QUERY SELECT A.id, A.key, A.score FROM A ORDER BY A.score DESC LIMIT 40000\n"
      in
      ignore (Unix.write_substring fd q 0 (String.length q));
      let buf = Bytes.create 4096 in
      ignore (Unix.read fd buf 0 (Bytes.length buf));
      Unix.close fd;
      (* Wait until the server has hit the dead peer and closed the
         session. *)
      let svc = Server.Listener.service srv in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Server.Service.sessions svc > 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      Alcotest.(check int) "dead session closed" 0 (Server.Service.sessions svc);
      let c = Server.Client.connect ep in
      (match
         Server.Client.request c
           "QUERY SELECT A.id FROM A ORDER BY A.score DESC LIMIT 3"
       with
      | Ok r ->
          Alcotest.(check bool) "next session answered" true r.Server.Protocol.ok;
          Alcotest.(check bool) "rows" true (List.length r.Server.Protocol.payload >= 3)
      | Error e -> Alcotest.fail e);
      Server.Client.close c)

(* An overlong command must be answered with ERR PROTOCOL and consumed;
   the connection stays framed and usable afterwards. *)
let test_oversized_line () =
  with_listener @@ fun ep ->
  let c = Server.Client.connect ep in
  let big =
    "QUERY " ^ String.make (Server.Listener.max_line_bytes + 100) 'x'
  in
  (match Server.Client.request c big with
  | Ok r ->
      Alcotest.(check bool) "rejected" false r.Server.Protocol.ok;
      Alcotest.(check string) "protocol error" "PROTOCOL"
        r.Server.Protocol.code
  | Error e -> Alcotest.fail e);
  (match Server.Client.request c "PING" with
  | Ok r -> Alcotest.(check bool) "connection survives" true r.Server.Protocol.ok
  | Error e -> Alcotest.fail e);
  Server.Client.close c

(* A command split into single-byte writes must still parse as one line,
   and two commands sent in one write must yield two framed responses. *)
let test_partial_and_batched_writes () =
  with_listener @@ fun ep ->
  let path = match ep with Server.Listener.Unix_socket p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let line = "PING\n" in
  String.iter
    (fun ch ->
      ignore (Unix.write_substring fd (String.make 1 ch) 0 1);
      Thread.yield ())
    line;
  let header = input_line ic in
  Alcotest.(check bool) "byte-at-a-time command answered" true
    (String.length header >= 2 && String.sub header 0 2 = "OK");
  let batch = "PING\nPING\n" in
  ignore (Unix.write_substring fd batch 0 (String.length batch));
  let h1 = input_line ic and h2 = input_line ic in
  List.iter
    (fun h ->
      Alcotest.(check bool) "pipelined command answered" true
        (String.length h >= 2 && String.sub h 0 2 = "OK"))
    [ h1; h2 ];
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* Concurrent sessions hammering EXECUTE / FETCH / CLOSE interleavings:
   every reply must stay well-formed — OK, or an ERR whose code is one
   the cursor lifecycle can legally produce — and the server must still
   answer a fresh connection afterwards. *)
let test_fetch_close_hammer () =
  with_listener @@ fun ep ->
  let errors = Atomic.make 0 in
  let hammer tid =
    let c = Server.Client.connect ep in
    let req line =
      match Server.Client.request c line with
      | Error _ -> Atomic.incr errors
      | Ok r ->
          if
            (not r.Server.Protocol.ok)
            && not
                 (List.mem r.Server.Protocol.code
                    [ "UNKNOWN_CURSOR"; "UNKNOWN_PREPARED"; "CURSOR_STALE" ])
          then Atomic.incr errors
    in
    req
      (Printf.sprintf
         "PREPARE q%d SELECT id FROM A ORDER BY A.score DESC LIMIT ?" tid);
    let prng = Rkutil.Prng.create (100 + tid) in
    for _ = 1 to 40 do
      match Rkutil.Prng.int prng 4 with
      | 0 -> req (Printf.sprintf "EXECUTE q%d 3" tid)
      | 1 -> req (Printf.sprintf "FETCH q%d NEXT 2" tid)
      | 2 -> req (Printf.sprintf "CLOSE q%d" tid)
      | _ -> req "PING"
    done;
    Server.Client.close c
  in
  let threads = List.init 6 (fun i -> Thread.create hammer i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no malformed or unexpected replies" 0
    (Atomic.get errors);
  let c = Server.Client.connect ep in
  (match Server.Client.request c "PING" with
  | Ok r -> Alcotest.(check bool) "server alive" true r.Server.Protocol.ok
  | Error e -> Alcotest.fail e);
  Server.Client.close c

let suites =
  [
    ( "concurrency",
      [
        Alcotest.test_case "io_stats: no lost updates" `Quick
          test_io_stats_no_lost_updates;
        Alcotest.test_case "buffer pool: concurrent gets" `Quick
          test_pool_concurrent_gets;
        Alcotest.test_case "buffer pool: concurrent dirtying" `Quick
          test_pool_concurrent_dirty;
        Alcotest.test_case "catalog: stats epoch monotone" `Quick
          test_catalog_stats_epoch;
        Alcotest.test_case "protocol: oversized line is shed, not fatal"
          `Quick test_oversized_line;
        Alcotest.test_case "protocol: peer hangs up mid-reply" `Quick
          test_peer_hangup_mid_reply;
        Alcotest.test_case "protocol: partial and pipelined writes" `Quick
          test_partial_and_batched_writes;
        Alcotest.test_case "protocol: FETCH/CLOSE interleaving hammer" `Slow
          test_fetch_close_hammer;
      ] );
  ]
