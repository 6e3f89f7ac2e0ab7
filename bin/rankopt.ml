(* rankopt: command-line front end for the rank-aware query engine.

   Generate a synthetic catalog and run top-k SQL against it:

     dune exec bin/rankopt.exe -- query \
       --table A:5000:200 --table B:5000:200 \
       "SELECT A.id, B.id FROM A, B WHERE A.key = B.key \
        ORDER BY 0.3*A.score + 0.7*B.score DESC LIMIT 5"

   Other commands: explain (plan only), repl (interactive). *)

open Cmdliner

type table_spec = { tname : string; rows : int; domain : int }

let parse_table_spec s =
  match String.split_on_char ':' s with
  | [ tname; rows; domain ] -> (
      match int_of_string_opt rows, int_of_string_opt domain with
      | Some rows, Some domain when rows > 0 && domain > 0 ->
          Ok { tname; rows; domain }
      | _ -> Error (`Msg "expected NAME:ROWS:KEYDOMAIN with positive integers"))
  | _ -> Error (`Msg "expected NAME:ROWS:KEYDOMAIN")

let table_spec_conv =
  Arg.conv
    ( parse_table_spec,
      fun fmt t -> Format.fprintf fmt "%s:%d:%d" t.tname t.rows t.domain )

let tables_arg =
  let doc =
    "Synthetic table to create, as NAME:ROWS:KEYDOMAIN. Columns are (id, \
     key, score) with a descending score index and a key index; the join \
     selectivity between two tables is 1/KEYDOMAIN. Repeatable."
  in
  Arg.(
    value
    & opt_all table_spec_conv
        [
          { tname = "A"; rows = 5000; domain = 200 };
          { tname = "B"; rows = 5000; domain = 200 };
        ]
    & info [ "table"; "t" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "Random seed for data generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let pool_arg =
  let doc = "Buffer pool size in pages." in
  Arg.(value & opt int 256 & info [ "pool" ] ~docv:"FRAMES" ~doc)

let verbose_arg =
  let doc = "Enable optimizer debug logging." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let traditional_arg =
  let doc = "Disable rank-aware optimization (join-then-sort plans only)." in
  Arg.(value & flag & info [ "traditional" ] ~doc)

let from_arg =
  let doc = "Load the catalog from a directory saved with --save instead of generating tables." in
  Arg.(value & opt (some dir) None & info [ "from" ] ~docv:"DIR" ~doc)

let save_arg =
  let doc = "After building the catalog, persist it to this directory." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR" ~doc)

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let build_catalog ?from_dir ?save_dir specs seed pool_frames =
  let catalog =
    match from_dir with
    | Some dir -> Storage.Persist.load ~pool_frames ~dir ()
    | None ->
        let catalog = Storage.Catalog.create ~pool_frames () in
        List.iteri
          (fun i spec ->
            ignore
              (Workload.Generator.load_scored_table catalog
                 (Rkutil.Prng.create (seed + (97 * i)))
                 ~name:spec.tname ~n:spec.rows ~key_domain:spec.domain ()))
          specs;
        catalog
  in
  (match save_dir with
  | Some dir -> Storage.Persist.save catalog ~dir
  | None -> ());
  catalog

let config_of traditional =
  if traditional then { Core.Enumerator.rank_aware = false; first_rows = false }
  else Core.Enumerator.default_config

let print_answer (ans : Sqlfront.Sql.answer) =
  Printf.printf "%s\n" (String.concat " | " ans.Sqlfront.Sql.columns);
  List.iteri
    (fun i row ->
      let score =
        match List.nth_opt ans.Sqlfront.Sql.scores i with
        | Some s -> Printf.sprintf "   [score %.6f]" s
        | None -> ""
      in
      Printf.printf "%s%s\n" (Relalg.Tuple.to_string row) score)
    ans.Sqlfront.Sql.rows;
  Printf.printf "(%d rows; plan: %s)\n"
    (List.length ans.Sqlfront.Sql.rows)
    (Core.Plan.describe ans.Sqlfront.Sql.planned.Core.Optimizer.plan)

let run_sql catalog config sql =
  match Sqlfront.Sql.query ~config catalog sql with
  | Ok ans ->
      print_answer ans;
      `Ok ()
  | Error e -> `Error (false, e)

let query_cmd =
  let run verbose tables seed pool traditional from_dir save_dir sql =
    setup_logs verbose;
    let catalog = build_catalog ?from_dir ?save_dir tables seed pool in
    run_sql catalog (config_of traditional) sql
  in
  let doc = "Generate synthetic tables (or --from a saved catalog) and execute a top-k SQL query." in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ tables_arg $ seed_arg $ pool_arg
       $ traditional_arg $ from_arg $ save_arg $ sql_arg))

let explain_cmd =
  let run tables seed pool traditional from_dir sql =
    let catalog = build_catalog ?from_dir tables seed pool in
    match Sqlfront.Sql.explain ~config:(config_of traditional) catalog sql with
    | Ok text ->
        print_string text;
        `Ok ()
    | Error e -> `Error (false, e)
  in
  let doc = "Show the optimizer's chosen plan for a query without running it." in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      ret
        (const run $ tables_arg $ seed_arg $ pool_arg $ traditional_arg
       $ from_arg $ sql_arg))

let analyze_cmd =
  let run verbose tables seed pool traditional from_dir sql =
    setup_logs verbose;
    let catalog = build_catalog ?from_dir tables seed pool in
    match Sqlfront.Sql.analyze ~config:(config_of traditional) catalog sql with
    | Ok text ->
        print_string text;
        `Ok ()
    | Error e -> `Error (false, e)
  in
  let doc =
    "Execute a query under per-operator instrumentation and print the \
     annotated plan: observed input depths next to the depth model's \
     predictions, and actual page I/O next to the cost model's estimate."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ tables_arg $ seed_arg $ pool_arg
       $ traditional_arg $ from_arg $ sql_arg))

let repl_cmd =
  let run tables seed pool traditional from_dir =
    let catalog = build_catalog ?from_dir tables seed pool in
    let config = config_of traditional in
    Printf.printf
      "rankopt repl — %s loaded; terminate statements with a newline, \\q quits.\n"
      (String.concat ", "
         (List.map (fun t -> Printf.sprintf "%s(%d)" t.tname t.rows) tables));
    let rec loop () =
      print_string "sql> ";
      match In_channel.input_line stdin with
      | None -> ()
      | Some line when String.trim line = "\\q" -> ()
      | Some line when String.trim line = "" -> loop ()
      | Some line ->
          (match String.trim line with
          | l
            when String.length l >= 8
                 && String.uppercase_ascii (String.sub l 0 8) = "EXPLAIN " -> (
              let sql = String.sub l 8 (String.length l - 8) in
              match Sqlfront.Sql.explain ~config catalog sql with
              | Ok text -> print_string text
              | Error e -> Printf.printf "error: %s\n" e)
          | l
            when String.length l >= 8
                 && String.uppercase_ascii (String.sub l 0 8) = "ANALYZE " -> (
              let sql = String.sub l 8 (String.length l - 8) in
              match Sqlfront.Sql.analyze ~config catalog sql with
              | Ok text -> print_string text
              | Error e -> Printf.printf "error: %s\n" e)
          | sql -> (
              match Sqlfront.Sql.execute ~config catalog sql with
              | Ok (Sqlfront.Sql.Rows ans) -> print_answer ans
              | Ok (Sqlfront.Sql.Affected n) -> Printf.printf "%d row(s) affected\n" n
              | Error e -> Printf.printf "error: %s\n" e));
          loop ()
    in
    loop ();
    `Ok ()
  in
  let doc =
    "Interactive SQL prompt over generated tables: SELECT/WITH queries, \
     INSERT INTO ... VALUES, DELETE FROM, and EXPLAIN/ANALYZE prefixes."
  in
  Cmd.v
    (Cmd.info "repl" ~doc)
    Term.(
      ret (const run $ tables_arg $ seed_arg $ pool_arg $ traditional_arg $ from_arg))

(* -- serve / client: the concurrent query service ----------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path to listen/connect on." in
  Arg.(
    value
    & opt string "/tmp/rankopt.sock"
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen/connect on TCP at this port instead of a Unix socket." in
  Arg.(value & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "TCP host (with --port)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let endpoint_of socket port host =
  match port with
  | Some p -> Server.Listener.Tcp (host, p)
  | None -> Server.Listener.Unix_socket socket

let serve_cmd =
  let run verbose tables seed pool from_dir socket port host workers queue
      cache timeout shards partition =
    setup_logs verbose;
    let catalog = build_catalog ?from_dir tables seed pool in
    let config =
      {
        Server.Service.workers;
        queue_capacity = queue;
        cache_capacity = cache;
        default_timeout_s = timeout;
      }
    in
    let endpoint = endpoint_of socket port host in
    if shards >= 2 then begin
      let cluster = Shard.Cluster.start ~config ?spec:partition ~n:shards catalog in
      let frontend = Shard.Frontend.start cluster endpoint in
      let part = Shard.Coordinator.part (Shard.Cluster.coordinator cluster) in
      Format.printf
        "rankopt serve: coordinating %d shard(s) on %a (%s partitioning)@."
        (Shard.Cluster.n_shards cluster)
        Server.Listener.pp_endpoint endpoint
        (Shard.Partition.describe part);
      Shard.Frontend.wait frontend;
      Shard.Cluster.stop cluster;
      Format.printf "rankopt serve: shut down@.";
      `Ok ()
    end
    else begin
      let listener = Server.Listener.start ~config endpoint catalog in
      Format.printf "rankopt serve: listening on %a (%d worker domain(s))@."
        Server.Listener.pp_endpoint endpoint workers;
      Server.Listener.wait listener;
      Format.printf "rankopt serve: shut down@.";
      `Ok ()
    end
  in
  let workers_arg =
    let doc = "Worker domains executing queries." in
    Arg.(value & opt int 4 & info [ "workers"; "w" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Job-queue capacity; excess statements are shed." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Plan-cache capacity in templates." in
    Arg.(value & opt int 128 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Default per-statement deadline, seconds." in
    Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let shards_arg =
    let doc =
      "Coordinator mode: partition the catalog across N in-process engine \
       shards (each its own service behind a private socket) and serve \
       through the rank-aware scatter/gather coordinator. Ranked \
       statements are pushed to the shards with a per-shard bound k' and \
       merged with threshold-style early termination; replies carry \
       scattered=1 and per-shard observed depths. SHARD LIST / SHARD ADD \
       become live."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let partition_arg =
    let doc =
      "Partitioning spec for --shards: 'hash' (stable hash of each \
       table's key column), 'hash:COL', or 'range:COL' (equi-depth \
       score ranges)."
    in
    Arg.(
      value & opt (some string) None & info [ "partition" ] ~docv:"SPEC" ~doc)
  in
  let doc =
    "Run the multi-session query service: a line protocol (PREPARE / \
     EXECUTE k / QUERY / EXPLAIN / STATS / SHUTDOWN) over a Unix or TCP \
     socket, executing on a pool of worker domains behind a rank-aware \
     (k-interval) plan cache. With --shards N, run as a distributed \
     top-k coordinator over N partitioned engine shards instead."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ tables_arg $ seed_arg $ pool_arg $ from_arg
       $ socket_arg $ port_arg $ host_arg $ workers_arg $ queue_arg $ cache_arg
       $ timeout_arg $ shards_arg $ partition_arg))

let client_cmd =
  let run socket port host commands =
    let endpoint = endpoint_of socket port host in
    match Server.Client.connect endpoint with
    | exception Unix.Unix_error (e, _, _) ->
        `Error
          ( false,
            Format.asprintf "cannot connect to %a: %s" Server.Listener.pp_endpoint
              endpoint (Unix.error_message e) )
    | client ->
        let send line =
          match Server.Client.request client line with
          | Error e ->
              Printf.printf "transport error: %s\n" e;
              false
          | Ok resp ->
              List.iter print_endline (Server.Protocol.render resp);
              resp.Server.Protocol.ok
        in
        let ok =
          match commands with
          | _ :: _ -> List.for_all send commands
          | [] ->
              (* Script mode: one command per stdin line. *)
              let rec loop acc =
                match In_channel.input_line stdin with
                | None -> acc
                | Some line when String.trim line = "" -> loop acc
                | Some line -> loop (send line && acc)
              in
              loop true
        in
        Server.Client.close client;
        if ok then `Ok () else `Error (false, "server returned an error")
  in
  let commands_arg =
    let doc =
      "Protocol command(s) to send (e.g. \"QUERY SELECT ...\"); reads one \
       command per stdin line when omitted."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"COMMAND" ~doc)
  in
  let doc = "Send protocol commands to a running rankopt server." in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(ret (const run $ socket_arg $ port_arg $ host_arg $ commands_arg))

let fuzz_cmd =
  let run seed cases server_mode enum_mode rank_mode vector_mode shard =
    let flags =
      List.concat
        [
          (if vector_mode then [ "--vector" ] else []);
          (if enum_mode then [ "--enum" ] else []);
          (if rank_mode then [ "--rank" ] else []);
          (if server_mode then [ "--server" ] else []);
          (match shard with Some n -> [ "--shard"; string_of_int n ] | None -> []);
        ]
    in
    match Check.Rankcheck.mode_of_flags ("fuzz" :: flags) with
    | Error e -> `Error (true, e)
    | Ok mode ->
        let t0 = Unix.gettimeofday () in
        let progress i =
          if cases > 20 && i > 0 && i mod 50 = 0 then
            Printf.eprintf "rankcheck: %d/%d cases...\n%!" i cases
        in
        let outcome = Check.Rankcheck.run ~progress mode ~seed ~cases () in
        let failures = outcome.Check.Rankcheck.o_failures in
        List.iter
          (fun f -> Format.printf "%a@.@." Check.Rankcheck.pp_failure f)
          failures;
        let title = Check.Rankcheck.title mode in
        Printf.printf
          "rankcheck%s: %d cases (seeds %d..%d), %d %s checked, %d failure(s) \
           [%.1fs]\n"
          (if title = "" then "" else " (" ^ title ^ ")")
          outcome.Check.Rankcheck.o_cases seed
          (seed + cases - 1)
          outcome.Check.Rankcheck.o_plans (Check.Rankcheck.noun mode)
          (List.length failures)
          (Unix.gettimeofday () -. t0);
        if failures = [] then `Ok ()
        else `Error (false, "rankcheck found divergences (replay commands above)")
  in
  let cases_arg =
    let doc = "Number of consecutive seeds to check." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let server_arg =
    let doc =
      "Replay each generated query through a live in-process server \
       (PREPARE with LIMIT ?, then EXECUTE twice at two k values, \
       asserting plan-cache hits) against direct execution, instead of \
       enumerating plans."
    in
    Arg.(value & flag & info [ "server" ] ~doc)
  in
  let enum_arg =
    let doc =
      "Ranked-enumeration sweep: PREPARE each case against an in-process \
       service, EXECUTE at its k, then FETCH NEXT in varied batch sizes \
       until exhaustion, requiring every prefix to be tuple-exact \
       (including ties and NaN drops) against a full ranked-list oracle."
    in
    Arg.(value & flag & info [ "enum" ] ~doc)
  in
  let rank_arg =
    let doc =
      "By-rank window sweep: execute both physical variants of each \
       generated rank() BETWEEN window (counted order-statistic descent \
       and drain-sort-slice) plus the full SQL path against a \
       sort-everything oracle, requiring tuple-exact windows (ties, NaN \
       drops, clamping included)."
    in
    Arg.(value & flag & info [ "rank" ] ~doc)
  in
  let vector_arg =
    let doc =
      "Batched-execution sweep: execute every MEMO-retained plan of each \
       case twice — tuple-at-a-time and with the vectorized spines enabled \
       (the default executor mode) — requiring bit-identical rows, scores \
       and order plus identical rank-join depth and emitted counters \
       across the two runs."
    in
    Arg.(value & flag & info [ "vector" ] ~doc)
  in
  let shard_arg =
    let doc =
      "Distributed-coordinator sweep: run each generated top-k join both \
       on a single node and through an in-process cluster of N engine \
       shards hash-partitioned on the join key (scatter with a per-shard \
       bound, threshold-style gather merge), requiring the single-node \
       score sequence and tuple-exact rows (boundary ties may resolve to \
       any member of the k-th-score group); a routed INSERT through the \
       coordinator then re-checks the query against the mutated data."
    in
    Arg.(value & opt (some int) None & info [ "shard" ] ~docv:"N" ~doc)
  in
  let doc =
    "Differential fuzzing: for each seed, generate random tables and a \
     random top-k query, compare every plan the optimizer can emit against \
     a naive sort-based oracle, and check rank-join depth bounds. Failures \
     are shrunk and print a replay command. With --server, replay through \
     the query service instead; with --enum, sweep cursor-style ranked \
     enumeration against a full-list oracle; with --rank, sweep by-rank \
     windows against a sort-everything oracle; with --vector, sweep \
     vectorized vs tuple-at-a-time execution of every retained plan; with \
     --shard, sweep single-node vs sharded-coordinator equivalence. At most \
     one of these mode flags may be given."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const run $ seed_arg $ cases_arg $ server_arg $ enum_arg $ rank_arg
       $ vector_arg $ shard_arg))

(* -- lint: the planlint static analyzer --------------------------------- *)

(* Statements in a .sql file are separated by ';'; '--' comments stripped. *)
let split_statements text =
  let strip_comment line =
    let n = String.length line in
    let rec dash i =
      if i + 1 >= n then line
      else if line.[i] = '-' && line.[i + 1] = '-' then String.sub line 0 i
      else dash (i + 1)
    in
    dash 0
  in
  String.split_on_char '\n' text
  |> List.map strip_comment |> String.concat "\n" |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let read_file path = In_channel.with_open_text path In_channel.input_all

let sql_files_of_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sql")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* Lint one statement: parse → normalize to the cache template → bind and
   optimize with emit-time linting on (memo subplans included) → full
   catalog over the finished statement. *)
let lint_statement catalog config sql =
  Lint.Engine.Emit.reset ();
  Lint.Engine.Emit.enable ();
  let result =
    match Sqlfront.Sql.template_of_sql sql with
    | Error e -> Error ("parse: " ^ e)
    | Ok tpl -> (
        match Sqlfront.Sql.instantiate tpl ?k:None () with
        | Error e -> Error ("instantiate: " ^ e)
        | Ok ast -> (
            match Sqlfront.Sql.prepare_ast ~config catalog ast with
            | Error e -> Error ("prepare: " ^ e)
            | Ok prep ->
                let p = prep.Sqlfront.Sql.planned in
                let diags =
                  Lint.Engine.Emit.diagnostics () @ Lint.Engine.lint_planned p
                in
                Ok
                  ( Lint.Diag.sort diags,
                    1 + Lint.Engine.Emit.linted (),
                    Core.Plan.describe p.Core.Optimizer.plan )))
  in
  Lint.Engine.Emit.disable ();
  result

let lint_cmd =
  let run verbose tables seed pool traditional from_dir files dirs fuzz_seed
      fuzz_cases json sqls =
    setup_logs verbose;
    match fuzz_seed with
    | Some fseed ->
        (* Fuzz sweep: lint every retained plan of every generated case. *)
        let progress i =
          if (not json) && fuzz_cases > 20 && i > 0 && i mod 200 = 0 then
            Printf.eprintf "lint: %d/%d cases...\n%!" i fuzz_cases
        in
        let outcome =
          Check.Rankcheck.run ~progress Check.Rankcheck.lint ~seed:fseed
            ~cases:fuzz_cases ()
        in
        let nfail = List.length outcome.Check.Rankcheck.o_failures in
        if json then
          Printf.printf
            "{\"lint\": \"fuzz\", \"seed\": %d, \"cases\": %d, \"plans\": %d, \
             \"failures\": %d}\n"
            fseed outcome.Check.Rankcheck.o_cases
            outcome.Check.Rankcheck.o_plans nfail
        else begin
          List.iter
            (fun f -> Format.printf "%a@.@." Check.Rankcheck.pp_failure f)
            outcome.Check.Rankcheck.o_failures;
          Printf.printf
            "planlint fuzz sweep: %d cases (seeds %d..%d), %d plans linted, \
             %d failure(s)\n"
            outcome.Check.Rankcheck.o_cases fseed
            (fseed + fuzz_cases - 1)
            outcome.Check.Rankcheck.o_plans nfail
        end;
        if nfail = 0 then `Ok ()
        else `Error (false, "planlint reported diagnostics (see above)")
    | None -> (
        let from_files =
          List.concat_map (fun f -> split_statements (read_file f)) files
        in
        let from_dirs =
          List.concat_map
            (fun d ->
              List.concat_map
                (fun f -> split_statements (read_file f))
                (sql_files_of_dir d))
            dirs
        in
        match sqls @ from_files @ from_dirs with
        | [] ->
            `Error
              (true, "no SQL to lint (pass statements, --file or --dir, or use --fuzz-seed)")
        | statements ->
            let catalog = build_catalog ?from_dir tables seed pool in
            let config = config_of traditional in
            let all_diags = ref [] in
            let broken = ref 0 in
            let plans = ref 0 in
            List.iter
              (fun sql ->
                match lint_statement catalog config sql with
                | Error e ->
                    incr broken;
                    Printf.eprintf "rankopt lint: %s\n  in: %s\n" e sql
                | Ok (diags, linted, plan) ->
                    plans := !plans + linted;
                    all_diags := !all_diags @ diags;
                    if not json then
                      if diags = [] then
                        Printf.printf "ok: %s\n  plan %s (%d plan(s) linted)\n"
                          sql plan linted
                      else begin
                        Printf.printf "%s\n" sql;
                        List.iter
                          (fun d ->
                            Printf.printf "  %s\n" (Lint.Diag.to_string d))
                          diags
                      end)
              statements;
            let errs = Lint.Engine.errors !all_diags in
            if json then print_endline (Lint.Diag.list_to_json !all_diags)
            else
              Printf.printf
                "planlint: %d statement(s), %d plan(s) linted, %d \
                 diagnostic(s) (%d error(s))\n"
                (List.length statements) !plans
                (List.length !all_diags)
                (List.length errs);
            if !broken > 0 then
              `Error (false, "some statements failed to parse or plan")
            else if errs <> [] then
              `Error (false, "planlint reported errors")
            else `Ok ())
  in
  let files_arg =
    let doc = "Lint every ';'-separated statement in this file. Repeatable." in
    Arg.(value & opt_all file [] & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let dirs_arg =
    let doc = "Lint every *.sql file in this directory. Repeatable." in
    Arg.(value & opt_all dir [] & info [ "dir"; "d" ] ~docv:"DIR" ~doc)
  in
  let fuzz_seed_arg =
    let doc =
      "Instead of SQL inputs, sweep the rankcheck fuzz corpus starting at \
       this seed: every MEMO-retained plan of every generated case is \
       linted (nothing is executed)."
    in
    Arg.(value & opt (some int) None & info [ "fuzz-seed" ] ~docv:"SEED" ~doc)
  in
  let fuzz_cases_arg =
    let doc = "Number of fuzz cases to sweep (with --fuzz-seed)." in
    Arg.(value & opt int 100 & info [ "fuzz-cases" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON diagnostics instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let sqls_arg =
    let doc = "SQL statement(s) to lint." in
    Arg.(value & pos_all string [] & info [] ~docv:"SQL" ~doc)
  in
  let doc =
    "Statically analyze plans with the planlint rule catalog (PL01..PL10): \
     schema/type soundness, order and pipelining properties, logical-to- \
     physical filter preservation, k-propagation and depth-bound sanity, \
     cost monotonicity, memo hygiene and top-k shape. Lints the optimizer's \
     chosen plan and (in emit mode) every MEMO-retained subplan; exits \
     nonzero on any error-severity diagnostic."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ tables_arg $ seed_arg $ pool_arg
       $ traditional_arg $ from_arg $ files_arg $ dirs_arg $ fuzz_seed_arg
       $ fuzz_cases_arg $ json_arg $ sqls_arg))

(* -- sanitize: the lockcheck concurrency-discipline analyzer ------------ *)

(* A 4-domain hammer over the sharded buffer pool: concurrent faults,
   hits, dirtying and flushes exercise the shard latches and the
   page-fault blocking marker. *)
let sanitize_hammer ~seed =
  let io = Storage.Io_stats.create () in
  let pool = Storage.Buffer_pool.create ~frames:8 io in
  let pages = 32 in
  let ids =
    Array.init pages (fun _ ->
        Storage.Page.id (Storage.Buffer_pool.alloc_page pool ~capacity:4))
  in
  Storage.Buffer_pool.flush pool;
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let prng = Rkutil.Prng.create (seed + d) in
            for _ = 1 to 2_000 do
              let id = ids.(Rkutil.Prng.int prng pages) in
              ignore (Storage.Buffer_pool.get pool id);
              if Rkutil.Prng.int prng 4 = 0 then
                Storage.Buffer_pool.mark_dirty pool id
            done))
  in
  List.iter Domain.join ds;
  Storage.Buffer_pool.flush pool

(* A socket serve mix: concurrent client threads over a live listener
   running cached top-k, cursor FETCH/CLOSE interleavings and DML, ended
   by a protocol SHUTDOWN (the graceful-drain path). Returns the number
   of malformed/unexpected replies. *)
let sanitize_serve ~seed =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankopt-sanitize-%d.sock" (Unix.getpid ()))
  in
  let cat = Storage.Catalog.create () in
  ignore
    (Workload.Generator.load_scored_table cat
       (Rkutil.Prng.create seed)
       ~name:"A" ~n:300 ~key_domain:20 ());
  ignore
    (Workload.Generator.load_scored_table cat
       (Rkutil.Prng.create (seed + 1))
       ~name:"B" ~n:300 ~key_domain:20 ());
  let ep = Server.Listener.Unix_socket path in
  let config = { Server.Service.default_config with workers = 2 } in
  let srv = Server.Listener.start ~config ep cat in
  let errors = Atomic.make 0 in
  let client tid =
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
         "PREPARE q%d SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER \
          BY 0.5*A.score + 0.5*B.score DESC LIMIT ?"
         tid);
    let prng = Rkutil.Prng.create (seed + 40 + tid) in
    for i = 1 to 30 do
      match Rkutil.Prng.int prng 6 with
      | 0 -> req (Printf.sprintf "EXECUTE q%d 5" tid)
      | 1 -> req (Printf.sprintf "FETCH q%d NEXT 3" tid)
      | 2 -> req (Printf.sprintf "CLOSE q%d" tid)
      | 3 -> req "QUERY SELECT A.id FROM A ORDER BY A.score DESC LIMIT 4"
      | 4 ->
          req
            (Printf.sprintf "QUERY INSERT INTO B VALUES (%d, %d, 0.25)"
               (9000 + (100 * tid) + i)
               (Rkutil.Prng.int prng 20))
      | _ -> req "STATS"
    done;
    Server.Client.close c
  in
  let threads = List.init 4 (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  let c = Server.Client.connect ep in
  (match Server.Client.request c "SHUTDOWN" with
  | Ok r -> if not r.Server.Protocol.ok then Atomic.incr errors
  | Error _ -> Atomic.incr errors);
  Server.Client.close c;
  Server.Listener.wait srv;
  (try Sys.remove path with Sys_error _ -> ());
  Atomic.get errors

let sanitize_cmd =
  let run seed cases shards json =
    let t0 = Unix.gettimeofday () in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let sweep name outcome =
      if outcome.Check.Rankcheck.o_failures <> [] then begin
        List.iter
          (fun f -> Format.eprintf "%a@.@." Check.Rankcheck.pp_failure f)
          outcome.Check.Rankcheck.o_failures;
        fail "%s: %d divergence(s)" name
          (List.length outcome.Check.Rankcheck.o_failures)
      end
    in
    let (), su, diags =
      Sanitize.Engine.checked (fun () ->
          sanitize_hammer ~seed;
          let serve_errors = sanitize_serve ~seed in
          if serve_errors > 0 then
            fail "serve mix: %d malformed replies" serve_errors;
          sweep "fuzz --server"
            (Check.Rankcheck.run Check.Rankcheck.server ~seed ~cases ());
          sweep
            (Printf.sprintf "fuzz --shard %d" shards)
            (Check.Rankcheck.run (Check.Rankcheck.shard shards) ~seed
               ~cases:(max 1 (cases / 4))
               ()))
    in
    if su.Sanitize.Trace.su_events = 0 then
      fail "instrumentation recorded no events (hooks not installed?)";
    let dt = Unix.gettimeofday () -. t0 in
    if json then
      Printf.printf
        "{\"sanitize\": {\"seed\": %d, \"cases\": %d, \"threads\": %d, \
         \"events\": %d, \"sites\": %d, \"edges\": %d, \"workload_failures\": \
         %d, \"diags\": %s}}\n"
        seed cases su.Sanitize.Trace.su_threads su.Sanitize.Trace.su_events
        (List.length su.Sanitize.Trace.su_sites)
        (List.length su.Sanitize.Trace.su_edges)
        (List.length !failures)
        (Lint.Diag.list_to_json diags)
    else begin
      List.iter (fun d -> print_endline (Lint.Diag.to_string d)) diags;
      List.iter (fun f -> Printf.printf "workload failure: %s\n" f) !failures;
      Printf.printf
        "lockcheck: hammer + serve + fuzz sweeps under instrumentation — %d \
         threads, %d events, %d sites, %d lock-order edges, %d diagnostic(s) \
         [%.1fs]\n"
        su.Sanitize.Trace.su_threads su.Sanitize.Trace.su_events
        (List.length su.Sanitize.Trace.su_sites)
        (List.length su.Sanitize.Trace.su_edges)
        (List.length diags) dt
    end;
    if diags = [] && !failures = [] then `Ok ()
    else `Error (false, "lockcheck reported diagnostics (see above)")
  in
  let cases_arg =
    let doc = "Fuzz cases per sweep (the shard sweep runs a quarter)." in
    Arg.(value & opt int 25 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Shard count for the coordinator sweep." in
    Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit one machine-readable JSON object instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "Replay concurrency-heavy workloads (buffer-pool domain hammer, socket \
     serve mix with graceful SHUTDOWN, fuzz --server/--shard \
     slices) with every latch instrumented, and audit the traces against \
     the declared concurrency discipline: lock-order-graph acyclicity and \
     declared ranks (LK01/LK02), blocking-under-latch (LK03), guarded-state \
     access (LK04), read->write upgrades (LK05), leaks at quiesce points \
     (LK06), release pairing (LK07) and hold-time outliers (LK08). Exits \
     nonzero on any diagnostic or workload divergence."
  in
  Cmd.v
    (Cmd.info "sanitize" ~doc)
    Term.(ret (const run $ seed_arg $ cases_arg $ shards_arg $ json_arg))

let main_cmd =
  let doc = "rank-aware top-k query engine (SIGMOD 2004 reproduction)" in
  let info = Cmd.info "rankopt" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      query_cmd; explain_cmd; analyze_cmd; repl_cmd; serve_cmd; client_cmd;
      fuzz_cmd; lint_cmd; sanitize_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
