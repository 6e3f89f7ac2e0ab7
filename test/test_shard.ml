(* Sharded scatter/gather: partitioning laws, and coordinator answers
   that must be cell-identical to single-node execution over the same
   data (the mirror). *)

open Relalg
module P = Shard.Partition
module C = Shard.Coordinator

let setup_catalog ?(n = 150) ?(tables = [ "A"; "B" ]) () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (i + 70))
           ~name ~n ~key_domain:12 ()))
    tables;
  cat

(* ------------------------------------------------------------------ *)
(* Partition unit tests                                                *)

let test_partition_split_exhaustive () =
  let cat = setup_catalog () in
  let part = P.derive ~n:4 cat in
  let shards = P.split part cat in
  Alcotest.(check int) "four shards" 4 (Array.length shards);
  List.iter
    (fun (info : Storage.Catalog.table_info) ->
      let table = info.Storage.Catalog.tb_name in
      let total =
        Array.fold_left
          (fun acc sh ->
            match Storage.Catalog.find_table sh table with
            | None -> Alcotest.failf "table %s missing from a shard" table
            | Some i ->
                acc
                + List.length (Storage.Heap_file.to_list i.Storage.Catalog.tb_heap))
          0 shards
      in
      Alcotest.(check int)
        (table ^ " rows conserved")
        (List.length (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap))
        total;
      (* Every row of shard s must assign to s: split and assign agree. *)
      Array.iteri
        (fun s sh ->
          match Storage.Catalog.find_table sh table with
          | None -> ()
          | Some i ->
              List.iter
                (fun tu ->
                  Alcotest.(check int) "assign agrees with split" s
                    (P.assign part ~table i.Storage.Catalog.tb_schema tu))
                (Storage.Heap_file.to_list i.Storage.Catalog.tb_heap))
        shards;
      (* Secondary indexes are replicated on every shard. *)
      Array.iter
        (fun sh ->
          Alcotest.(check int)
            (table ^ " indexes replicated")
            (List.length (Storage.Catalog.indexes_on cat table))
            (List.length (Storage.Catalog.indexes_on sh table)))
        shards)
    (Storage.Catalog.tables cat)

let test_partition_hash_stable () =
  (* The hash is a pure function of the persist encoding — the property
     that lets an external --shard-of process agree with the
     coordinator. *)
  List.iter
    (fun v ->
      Alcotest.(check int) "encode-hash"
        (Hashtbl.hash (Storage.Persist.value_encode v) land max_int)
        (P.hash_value v))
    [ Value.Int 42; Value.Float 0.75; Value.Str "x"; Value.Null ]

let test_partition_specs () =
  let cat = setup_catalog () in
  (match P.scheme_of (P.derive ~n:3 cat) "A" with
  | Some (P.Hash "key") -> ()
  | _ -> Alcotest.fail "default spec should hash on key");
  (match P.scheme_of (P.derive ~spec:"range:score" ~n:3 cat) "A" with
  | Some (P.Score_range { column = "score"; cuts }) ->
      Alcotest.(check int) "n-1 cuts" 2 (Array.length cuts);
      Alcotest.(check bool) "cuts ascending" true (cuts.(0) <= cuts.(1))
  | _ -> Alcotest.fail "range spec should range-partition score");
  (match P.scheme_of (P.derive ~spec:"hash:score" ~n:3 cat) "A" with
  | Some (P.Hash "score") -> ()
  | _ -> Alcotest.fail "hash:<col> spec")

let test_co_partitioned () =
  let cat = setup_catalog () in
  let part = P.derive ~n:3 cat in
  Alcotest.(check bool) "single table" true
    (P.co_partitioned part ~tables:[ "A" ] ~joins:[]);
  Alcotest.(check bool) "key = key join" true
    (P.co_partitioned part ~tables:[ "A"; "B" ]
       ~joins:[ ("A", "key", "B", "key") ]);
  Alcotest.(check bool) "join off the partition column" false
    (P.co_partitioned part ~tables:[ "A"; "B" ]
       ~joins:[ ("A", "id", "B", "id") ]);
  let range = P.derive ~spec:"range:score" ~n:3 cat in
  Alcotest.(check bool) "range tables never co-partition joins" false
    (P.co_partitioned range ~tables:[ "A"; "B" ]
       ~joins:[ ("A", "key", "B", "key") ])

(* ------------------------------------------------------------------ *)
(* Coordinator vs single-node equality                                 *)

let with_cluster ?spec ?(n = 3) ?tables f =
  let cat = setup_catalog ?tables () in
  let cl = Shard.Cluster.start ?spec ~n cat in
  Fun.protect
    ~finally:(fun () -> Shard.Cluster.stop cl)
    (fun () ->
      let coord = Shard.Cluster.coordinator cl in
      let ses = C.open_session coord in
      Fun.protect ~finally:(fun () -> C.close_session ses) (fun () -> f cl coord ses))

let check_value = Alcotest.testable Value.pp Value.equal

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_matches_single_node ?(expect_scatter = true) coord ses sql =
  let reply =
    match C.query ses sql with
    | Ok r -> r
    | Error e -> Alcotest.failf "coordinator: %s" (Server.Service.error_message e)
  in
  let reference =
    match Sqlfront.Sql.query (C.mirror coord) sql with
    | Ok a -> a
    | Error e -> Alcotest.failf "single-node: %s" e
  in
  Alcotest.(check bool)
    (Printf.sprintf "scattered? %s" sql)
    expect_scatter reply.C.scattered;
  Alcotest.(check (list string)) "columns" reference.Sqlfront.Sql.columns reply.C.columns;
  Alcotest.(check int)
    "row count"
    (List.length reference.Sqlfront.Sql.rows)
    (List.length reply.C.rows);
  List.iter2
    (fun want got ->
      Alcotest.(check (array check_value)) "row cells" want got)
    reference.Sqlfront.Sql.rows reply.C.rows;
  List.iter2
    (fun (want : float) got ->
      if Float.compare want got <> 0 then
        Alcotest.failf "score drift: %h vs %h" want got)
    reference.Sqlfront.Sql.scores reply.C.scores;
  reply

let test_topk_single_table () =
  with_cluster @@ fun _cl coord ses ->
  let r =
    check_matches_single_node coord ses
      "SELECT A.id, A.score FROM A ORDER BY A.score DESC LIMIT 7"
  in
  Alcotest.(check int) "per-shard depths reported" 3 (Array.length r.C.depths);
  Alcotest.(check bool) "depth bounded by k'" true
    (Array.for_all (fun d -> d <= 7) r.C.depths)

let test_topk_with_filter () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id FROM A WHERE A.score >= 0.25 AND A.key <= 8 ORDER BY \
        A.score DESC LIMIT 6")

let test_topk_rank_column () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "WITH ranked AS (SELECT A.id AS i, rank() OVER (ORDER BY A.score \
        DESC) AS r FROM A) SELECT i, r FROM ranked WHERE r <= 5")

let test_topk_co_partitioned_join () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY 0.4 * \
        A.score + 0.6 * B.score DESC LIMIT 5")

let test_join_not_co_partitioned_falls_back () =
  with_cluster @@ fun _cl coord ses ->
  (* Joined on id, partitioned on key: must fall back to the mirror and
     still answer correctly. *)
  ignore
    (check_matches_single_node ~expect_scatter:false coord ses
       "SELECT A.id, B.id FROM A, B WHERE A.id = B.id ORDER BY 0.5 * A.score \
        + 0.5 * B.score DESC LIMIT 4")

let test_window_sparse () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id, rank() FROM A WHERE rank() BETWEEN 4 AND 11 ORDER BY \
        A.score DESC")

let test_window_dense () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id, rank() FROM A WHERE dense_rank() BETWEEN 3 AND 8 ORDER \
        BY A.score DESC")

let test_window_residual_filter () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id FROM A WHERE A.key >= 4 AND rank() BETWEEN 2 AND 9 ORDER \
        BY A.score DESC")

let test_range_partitioned_topk () =
  with_cluster ~spec:"range:score" @@ fun _cl coord ses ->
  let r =
    check_matches_single_node coord ses
      "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 8"
  in
  (* Under range partitioning on the score the top shard answers nearly
     alone — the merge should not have drained the cold shards. *)
  let sorted = Array.copy r.C.depths in
  Array.sort compare sorted;
  Alcotest.(check bool) "cold shard nearly idle" true (sorted.(0) <= 8)

let test_fetch_continuation_matches_one_shot () =
  with_cluster @@ fun _cl coord ses ->
  let sql =
    "WITH ranked AS (SELECT A.id AS i, rank() OVER (ORDER BY A.score DESC) \
     AS r FROM A) SELECT i, r FROM ranked WHERE r <= 9"
  in
  (match C.prepare ses ~name:"cur" sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prepare: %s" (Server.Service.error_message e));
  let exec =
    match C.execute_prepared ses ~k:4 "cur" with
    | Ok r -> r
    | Error e -> Alcotest.failf "execute: %s" (Server.Service.error_message e)
  in
  Alcotest.(check bool) "execute scattered" true exec.C.scattered;
  let fetched =
    match C.fetch ses ~name:"cur" 5 with
    | Ok r -> r
    | Error e -> Alcotest.failf "fetch: %s" (Server.Service.error_message e)
  in
  let reference =
    match
      Sqlfront.Sql.query (C.mirror coord)
        "WITH ranked AS (SELECT A.id AS i, rank() OVER (ORDER BY A.score \
         DESC) AS r FROM A) SELECT i, r FROM ranked WHERE r <= 9"
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "reference: %s" e
  in
  let got = exec.C.rows @ fetched.C.rows in
  Alcotest.(check int) "4 + 5 rows" 9 (List.length got);
  List.iter2
    (fun want g -> Alcotest.(check (array check_value)) "continuation row" want g)
    reference.Sqlfront.Sql.rows got

let test_dml_routing_and_staleness () =
  with_cluster @@ fun _cl coord ses ->
  (match C.prepare ses ~name:"top" "SELECT A.id FROM A ORDER BY A.score DESC LIMIT ?" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prepare: %s" (Server.Service.error_message e));
  (match C.execute_prepared ses ~k:3 "top" with
  | Ok r -> Alcotest.(check bool) "scattered" true r.C.scattered
  | Error e -> Alcotest.failf "execute: %s" (Server.Service.error_message e));
  (* A routed INSERT of an unbeatable row: applied to the mirror and to
     exactly the owning shard. *)
  (match C.query ses "INSERT INTO A VALUES (9001, 3, 99.5)" with
  | Ok r -> Alcotest.(check (option int)) "affected" (Some 1) r.C.affected
  | Error e -> Alcotest.failf "insert: %s" (Server.Service.error_message e));
  (* The gather cursor opened before the DML is now stale. *)
  (match C.fetch ses ~name:"top" 2 with
  | Error (Server.Service.Cursor_stale "top") -> ()
  | Ok _ -> Alcotest.fail "fetch after DML should be stale"
  | Error e -> Alcotest.failf "unexpected: %s" (Server.Service.error_message e));
  (* Scattered re-query sees the new row first — shards agree with the
     mirror. *)
  let r =
    check_matches_single_node coord ses
      "SELECT A.id, A.score FROM A ORDER BY A.score DESC LIMIT 3"
  in
  (match r.C.rows with
  | first :: _ -> Alcotest.(check check_value) "new row wins" (Value.Int 9001) first.(0)
  | [] -> Alcotest.fail "no rows");
  (* Broadcast DELETE keeps mirror and shards in lockstep too. *)
  (match C.query ses "DELETE FROM A WHERE A.id = 9001" with
  | Ok r -> Alcotest.(check (option int)) "deleted" (Some 1) r.C.affected
  | Error e -> Alcotest.failf "delete: %s" (Server.Service.error_message e));
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id, A.score FROM A ORDER BY A.score DESC LIMIT 3")

let test_shard_add_repartitions () =
  with_cluster ~n:2 @@ fun cl coord ses ->
  let epoch0 = C.part_epoch coord in
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 5");
  (match C.shard_add coord "" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "shard add: %s" msg);
  Alcotest.(check int) "three shards" 3 (Shard.Cluster.n_shards cl);
  Alcotest.(check bool) "epoch bumped" true (C.part_epoch coord > epoch0);
  Alcotest.(check int) "shard list" 3 (List.length (C.shard_list coord));
  let r =
    check_matches_single_node coord ses
      "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 5"
  in
  Alcotest.(check int) "depths resized" 3 (Array.length r.C.depths)

let test_explain_and_analyze () =
  with_cluster @@ fun _cl _coord ses ->
  let sql = "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 5" in
  (match C.explain ses sql with
  | Ok text ->
      let has s = contains ~needle:s text in
      Alcotest.(check bool) "GatherMerge node" true (has "GatherMerge");
      Alcotest.(check bool) "RemoteScan leaves" true (has "RemoteScan");
      Alcotest.(check bool) "k' bound" true (has "k'=5")
  | Error e -> Alcotest.failf "explain: %s" (Server.Service.error_message e));
  match C.analyze ses sql with
  | Ok text ->
      Alcotest.(check bool) "observed depths" true
        (contains ~needle:"observed_depth=" text)
  | Error e -> Alcotest.failf "analyze: %s" (Server.Service.error_message e)

let test_stats_aggregate () =
  with_cluster @@ fun _cl coord ses ->
  ignore
    (check_matches_single_node coord ses
       "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 3");
  let fields = C.stats coord in
  Alcotest.(check (option string)) "shards field" (Some "3")
    (List.assoc_opt "shards" fields);
  Alcotest.(check bool) "cluster counters summed" true
    (List.mem_assoc "cluster_queries" fields)

(* Scatters reuse the shard-side statements of closed scatters of the
   same pushed SQL: after hundreds of scattered statements each shard
   session holds a handful of statements, not one per statement. A gather
   cursor stays open throughout, so its statement name must never be
   handed to another scatter. *)
let test_scatter_statements_reused () =
  with_cluster ~n:2 @@ fun _cl coord ses ->
  let prepared () =
    match List.assoc_opt "cluster_link_prepared" (C.stats coord) with
    | Some v -> int_of_string v
    | None -> Alcotest.fail "no cluster_link_prepared field"
  in
  (match C.prepare ses ~name:"held" "SELECT A.id FROM A ORDER BY A.score DESC LIMIT ?" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prepare: %s" (Server.Service.error_message e));
  (match C.execute_prepared ses ~k:2 "held" with
  | Ok r -> Alcotest.(check bool) "held scattered" true r.C.scattered
  | Error e -> Alcotest.failf "execute: %s" (Server.Service.error_message e));
  let templates =
    [|
      Printf.sprintf "SELECT A.id, A.score FROM A ORDER BY A.score DESC LIMIT %d";
      Printf.sprintf
        "SELECT A.id FROM A WHERE A.score >= 0.25 ORDER BY A.score DESC LIMIT %d";
      Printf.sprintf
        "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY A.score + \
         B.score DESC LIMIT %d";
    |]
  in
  let statements = 240 in
  for i = 0 to statements - 1 do
    let sql = templates.(i mod 3) (1 + (i mod 7)) in
    if i mod 40 = 0 then ignore (check_matches_single_node coord ses sql)
    else
      match C.query ses sql with
      | Ok r -> if not r.C.scattered then Alcotest.failf "not scattered: %s" sql
      | Error e -> Alcotest.failf "%s: %s" sql (Server.Service.error_message e)
  done;
  (* one statement per template per shard, plus the held cursor's *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded shard statements (%d)" (prepared ()))
    true
    (prepared () <= 2 * 4);
  (* the held cursor is intact: it continues where its EXECUTE stopped *)
  let reference =
    match
      Sqlfront.Sql.query (C.mirror coord)
        "SELECT A.id FROM A ORDER BY A.score DESC LIMIT 5"
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "reference: %s" e
  in
  match C.fetch ses ~name:"held" 3 with
  | Ok r ->
      List.iter2
        (fun want got -> Alcotest.(check (array check_value)) "held row" want got)
        (List.filteri (fun i _ -> i >= 2) reference.Sqlfront.Sql.rows)
        r.C.rows
  | Error e -> Alcotest.failf "fetch: %s" (Server.Service.error_message e)

let link_stat coord key =
  match List.assoc_opt key (C.stats coord) with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "no %s field" key

let join_topk =
  "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY A.score + \
   B.score DESC LIMIT ?"

(* Re-EXECUTEs of one gather cursor keep its shard statement names: each
   shard's EXECUTE replaces the cursor under the name, so a shard holds
   one statement and one cursor for it however often it runs. *)
let test_execute_reuses_gather_names () =
  with_cluster ~n:2 @@ fun _cl coord ses ->
  (match C.prepare ses ~name:"j" join_topk with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prepare: %s" (Server.Service.error_message e));
  for i = 0 to 199 do
    let k = 1 + (i * 7 mod 30) in
    match C.execute_prepared ses ~k "j" with
    | Error e -> Alcotest.failf "execute k=%d: %s" k (Server.Service.error_message e)
    | Ok r ->
        Alcotest.(check bool) "scattered" true r.C.scattered;
        if i mod 50 = 0 then begin
          let sql =
            String.sub join_topk 0 (String.length join_topk - 1) ^ string_of_int k
          in
          let reference =
            match Sqlfront.Sql.query (C.mirror coord) sql with
            | Ok a -> a
            | Error e -> Alcotest.failf "reference: %s" e
          in
          List.iter2
            (fun want got -> Alcotest.(check (array check_value)) "row" want got)
            reference.Sqlfront.Sql.rows r.C.rows
        end
  done;
  Alcotest.(check int) "shard statements" 2 (link_stat coord "cluster_link_prepared");
  Alcotest.(check int) "shard cursors" 2 (link_stat coord "cluster_link_cursors")

(* A second coordinator over the same mirror whose links are [endpoints]. *)
let with_coordinator coord endpoints f =
  let co =
    C.create ~mirror:(C.mirror coord) ~part:(C.part coord) ~endpoints ()
  in
  let ses = C.open_session co in
  Fun.protect
    ~finally:(fun () ->
      C.close_session ses;
      C.shutdown co)
    (fun () -> f co ses)

(* A scatter that fails on one link leaves nothing open on the others:
   every link is connected before a statement is prepared anywhere. *)
let test_failed_scatter_leaks_nothing () =
  with_cluster ~n:2 @@ fun _cl coord _ses ->
  let healthy = List.hd (C.endpoints coord) in
  let missing =
    Server.Listener.Unix_socket
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "rankopt-absent-%d.sock" (Unix.getpid ())))
  in
  with_coordinator coord [ healthy; missing ] @@ fun co ses ->
  (match C.prepare ses ~name:"j" join_topk with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prepare: %s" (Server.Service.error_message e));
  for k = 1 to 20 do
    match C.execute_prepared ses ~k "j" with
    | Ok _ -> Alcotest.fail "execute over an unreachable shard succeeded"
    | Error (Server.Service.Exec_error _) -> ()
    | Error e -> Alcotest.failf "unexpected: %s" (Server.Service.error_message e)
  done;
  let prepared = link_stat co "cluster_link_prepared" in
  Alcotest.(check bool)
    (Printf.sprintf "healthy shard statements (%d)" prepared)
    true (prepared <= 1);
  Alcotest.(check bool) "healthy shard cursors" true
    (link_stat co "cluster_link_cursors" <= 1)

(* A line proxy in front of [upstream] that answers the lines [inject]
   picks with its canned reply instead of forwarding them. *)
let with_fault_proxy ~upstream ~inject f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankopt-proxy-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX path);
  Unix.listen lsock 4;
  let serve fd =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let up = Server.Client.connect upstream in
    let reply lines =
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      flush oc
    in
    (try
       while true do
         let line = input_line ic in
         match inject line with
         | Some canned -> reply [ canned ]
         | None -> (
             match Server.Client.request up line with
             | Ok resp -> reply (Server.Protocol.render resp)
             | Error _ -> raise Exit)
       done
     with _ -> ());
    Server.Client.close up;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let th =
    Thread.create
      (fun () ->
        try
          while true do
            serve (fst (Unix.accept lsock))
          done
        with Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown lsock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Server.Listener.Unix_socket path))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Answer the [nth] line starting with [verb] with [canned]. *)
let nth_line ~verb ~nth canned =
  let seen = ref 0 in
  fun line ->
    if starts_with ~prefix:verb line then begin
      incr seen;
      if !seen = nth then Some canned else None
    end
    else None

let topk_sql = "SELECT A.id, A.score FROM A ORDER BY A.score DESC LIMIT 6"

(* A shard ERR in the middle of a batch (the PREPARE between TIMEOUT and
   EXECUTE) comes back as its typed error; every reply of the batch is
   still read, so the next statement on the session gets the mirror's
   rows. *)
let test_batch_error_keeps_links_framed () =
  with_cluster ~n:2 @@ fun _cl coord _ses ->
  let eps = C.endpoints coord in
  with_fault_proxy ~upstream:(List.hd eps)
    ~inject:(nth_line ~verb:"PREPARE" ~nth:1 "ERR QUEUE_FULL injected")
  @@ fun proxied ->
  with_coordinator coord [ proxied; List.nth eps 1 ] @@ fun co ses ->
  (match C.query ses topk_sql with
  | Error (Server.Service.Queue_full "injected") -> ()
  | Ok _ -> Alcotest.fail "injected ERR did not surface"
  | Error e -> Alcotest.failf "untyped: %s" (Server.Service.error_message e));
  ignore (check_matches_single_node co ses topk_sql);
  ignore (check_matches_single_node co ses topk_sql)

(* A shard's ERR TIMEOUT surfaces as [Svc.Timeout], and the link serves
   the next statement. *)
let test_shard_timeout_is_typed () =
  with_cluster ~n:2 @@ fun _cl coord _ses ->
  let eps = C.endpoints coord in
  with_fault_proxy ~upstream:(List.nth eps 1)
    ~inject:(nth_line ~verb:"EXECUTE" ~nth:1 "ERR TIMEOUT statement deadline exceeded")
  @@ fun proxied ->
  with_coordinator coord [ List.hd eps; proxied ] @@ fun co ses ->
  (match C.query ses topk_sql with
  | Error Server.Service.Timeout -> ()
  | Ok _ -> Alcotest.fail "injected TIMEOUT did not surface"
  | Error e -> Alcotest.failf "untyped: %s" (Server.Service.error_message e));
  ignore (check_matches_single_node co ses topk_sql)

(* The wire front end end-to-end: coordinator replies carry depths and
   SHARD verbs are live. *)
let test_frontend_protocol () =
  let cat = setup_catalog () in
  let cl = Shard.Cluster.start ~n:3 cat in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankopt-coord-%d.sock" (Unix.getpid ()))
  in
  let fr = Shard.Frontend.start cl (Server.Listener.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      Shard.Frontend.stop fr;
      Shard.Cluster.stop cl;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Server.Client.connect (Server.Listener.Unix_socket path) in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let req line =
            match Server.Client.request c line with
            | Ok r -> r
            | Error e -> Alcotest.failf "transport: %s" e
          in
          let r =
            req "QUERY SELECT A.id FROM A ORDER BY A.score DESC LIMIT 4"
          in
          Alcotest.(check bool) "ok" true r.Server.Protocol.ok;
          Alcotest.(check (option string)) "scattered" (Some "1")
            (List.assoc_opt "scattered" r.Server.Protocol.fields);
          (match List.assoc_opt "depths" r.Server.Protocol.fields with
          | Some d ->
              Alcotest.(check int) "3 depth slots" 3
                (List.length (String.split_on_char ',' d))
          | None -> Alcotest.fail "no depths field");
          let sl = req "SHARD LIST" in
          Alcotest.(check int) "3 shard lines" 3
            (List.length sl.Server.Protocol.payload);
          let sa = req "SHARD ADD auto" in
          Alcotest.(check bool) "shard add ok" true sa.Server.Protocol.ok;
          let sl2 = req "SHARD LIST" in
          Alcotest.(check int) "4 shard lines" 4
            (List.length sl2.Server.Protocol.payload);
          let r2 =
            req "QUERY SELECT A.id FROM A ORDER BY A.score DESC LIMIT 4"
          in
          Alcotest.(check bool) "ok after reshard" true r2.Server.Protocol.ok))

let suites =
  [
    ( "shard partition",
      [
        Alcotest.test_case "split conserves and agrees with assign" `Quick
          test_partition_split_exhaustive;
        Alcotest.test_case "hash is encoding-stable" `Quick
          test_partition_hash_stable;
        Alcotest.test_case "derive specs" `Quick test_partition_specs;
        Alcotest.test_case "co-partitioning law" `Quick test_co_partitioned;
      ] );
    ( "shard coordinator",
      [
        Alcotest.test_case "top-k single table" `Quick test_topk_single_table;
        Alcotest.test_case "top-k with filters" `Quick test_topk_with_filter;
        Alcotest.test_case "top-k rank column" `Quick test_topk_rank_column;
        Alcotest.test_case "co-partitioned join scatters" `Quick
          test_topk_co_partitioned_join;
        Alcotest.test_case "non-co-partitioned join falls back" `Quick
          test_join_not_co_partitioned_falls_back;
        Alcotest.test_case "sparse rank window" `Quick test_window_sparse;
        Alcotest.test_case "dense rank window" `Quick test_window_dense;
        Alcotest.test_case "window residual filter" `Quick
          test_window_residual_filter;
        Alcotest.test_case "range partitioning stays exact" `Quick
          test_range_partitioned_topk;
        Alcotest.test_case "fetch continuation" `Quick
          test_fetch_continuation_matches_one_shot;
        Alcotest.test_case "DML routing and cursor staleness" `Quick
          test_dml_routing_and_staleness;
        Alcotest.test_case "SHARD ADD repartitions" `Quick
          test_shard_add_repartitions;
        Alcotest.test_case "explain and analyze" `Quick
          test_explain_and_analyze;
        Alcotest.test_case "stats aggregation" `Quick test_stats_aggregate;
        Alcotest.test_case "scatters reuse shard statements" `Quick
          test_scatter_statements_reused;
        Alcotest.test_case "re-EXECUTE reuses gather names" `Quick
          test_execute_reuses_gather_names;
        Alcotest.test_case "failed scatter leaks nothing" `Quick
          test_failed_scatter_leaks_nothing;
        Alcotest.test_case "batch ERR keeps links framed" `Quick
          test_batch_error_keeps_links_framed;
        Alcotest.test_case "shard TIMEOUT is typed" `Quick
          test_shard_timeout_is_typed;
        Alcotest.test_case "frontend protocol" `Quick test_frontend_protocol;
      ] );
  ]
