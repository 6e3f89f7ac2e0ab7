(* The traced replay: the first statements of a workload's stream, run
   in-process on one client. It makes the calls [Service.run_template] and
   [Sql.run_update] make, in their order, with a span around each call into
   a layer; the plan cache is a harness-owned {!Server.Plan_cache.t} keyed
   as the service keys it. The shard workload replays each statement twice:
   through the in-process coordinator, and through the single-node path on
   the cluster's unpartitioned mirror. *)

module P = Server.Protocol
module Sql = Sqlfront.Sql

(* Counters taken at the harness boundary. With one client and no timers
   they repeat exactly for a seed. *)
type counts = {
  mutable stmts : int;  (* single-node statements *)
  mutable optimized : int;
  mutable memo_generated : int;
  mutable memo_retained : int;
  mutable depth_ratios : float list;  (* observed / predicted, per rank join *)
  mutable rank_depth : int;  (* summed rank-join input depths *)
  mutable buffer_max : int;
  mutable tuples_read : int;
  mutable rows : int;
  mutable page_reads : int;
  mutable pool_hits : int;
  mutable index_node_reads : int;
  mutable hits : int;
  mutable stale : int;
  mutable interval_miss : int;
  mutable absent : int;
  mutable coord_stmts : int;
  mutable scattered : int;
  mutable rows_pulled : int;
  mutable pull_bound : int;  (* shards * k, summed *)
  mutable depth_max : int;
}

let new_counts () =
  {
    stmts = 0;
    optimized = 0;
    memo_generated = 0;
    memo_retained = 0;
    depth_ratios = [];
    rank_depth = 0;
    buffer_max = 0;
    tuples_read = 0;
    rows = 0;
    page_reads = 0;
    pool_hits = 0;
    index_node_reads = 0;
    hits = 0;
    stale = 0;
    interval_miss = 0;
    absent = 0;
    coord_stmts = 0;
    scattered = 0;
    rows_pulled = 0;
    pull_bound = 0;
    depth_max = 0;
  }

type ctx = {
  cat : Storage.Catalog.t;
  cache : Server.Plan_cache.t;
  templates : (string, Sql.template) Hashtbl.t;
  cursors : (string, Sql.cursor) Hashtbl.t;
  sp : Spans.t;
  c : counts;
}

let span ctx = Spans.span ctx.sp

let get what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Observed against predicted depth for each binary rank join of a
   one-shot execution (the cursor path exposes no operator statistics). *)
let count_execution c (planned : Core.Optimizer.planned)
    (r : Core.Executor.run_result) =
  let predicted =
    match planned.Core.Optimizer.query.Core.Logical.k with
    | Some k when Core.Plan.has_rank_join planned.Core.Optimizer.plan ->
        Core.Propagate.rank_join_annotations
          (Core.Propagate.run planned.Core.Optimizer.env ~k
             planned.Core.Optimizer.plan)
    | _ -> []
  in
  let observed =
    List.map (fun n -> n.Core.Executor.stats) r.Core.Executor.rank_nodes
  in
  List.iter
    (fun s ->
      c.rank_depth <- c.rank_depth + Exec.Exec_stats.total_in s;
      c.buffer_max <- max c.buffer_max (Exec.Exec_stats.buffer_max s))
    (observed
    @ List.map (fun n -> n.Core.Executor.nary_stats) r.Core.Executor.nary_nodes);
  if List.length predicted = List.length observed then
    List.iter2
      (fun (_, _, d) s ->
        let p = d.Core.Depth_model.d_left +. d.Core.Depth_model.d_right in
        if p > 0.0 then
          c.depth_ratios <- (float (Exec.Exec_stats.total_in s) /. p) :: c.depth_ratios)
      predicted observed

(* What a statement answers: a service reply, rendered by
   [Protocol.render_reply], or the header fields and payload of a response
   the listener builds itself. *)
type answer =
  | Reply of Server.Service.reply
  | Response of (string * string) list * string list

(* [Service.run_template], one step per span. Returns the reply and, for a
   one-shot execution, what is needed to count it once the statement's
   root span has closed. *)
let run_template ctx ~start ?k ?cursor_name (tpl : Sql.template) =
  let c = ctx.c in
  let eff_k = match k with Some _ -> k | None -> tpl.Sql.tpl_inline_k in
  let tables = tpl.Sql.tpl_ast.Sqlfront.Ast.from in
  let epoch =
    span ctx "storage.epoch" (fun () ->
        Storage.Catalog.epoch_of_tables ctx.cat tables)
  in
  (match cursor_name with
  | Some name -> (
      match Hashtbl.find_opt ctx.cursors name with
      | Some cur ->
          Hashtbl.remove ctx.cursors name;
          span ctx "exec.cursor_close" (fun () -> Sql.cursor_close cur)
      | None -> ())
  | None -> ());
  let key = tpl.Sql.tpl_text in
  let lookup =
    span ctx "server.plan_cache" (fun () ->
        Server.Plan_cache.find ctx.cache ~key ~epoch ~k:eff_k)
  in
  let prepared, cached, reoptimized =
    match lookup with
    | Server.Plan_cache.Hit p ->
        c.hits <- c.hits + 1;
        (p, true, false)
    | miss ->
        (match miss with
        | Server.Plan_cache.Stale -> c.stale <- c.stale + 1
        | Server.Plan_cache.Interval_miss -> c.interval_miss <- c.interval_miss + 1
        | _ -> c.absent <- c.absent + 1);
        let bound =
          span ctx "sqlfront.bind" (fun () ->
              Sqlfront.Binder.bind_result ctx.cat
                (get "bind" (Sql.instantiate tpl ?k ())))
          |> get "bind"
        in
        let planned =
          span ctx "core.optimize" (fun () ->
              Core.Optimizer.optimize ctx.cat bound.Sqlfront.Binder.logical)
        in
        c.optimized <- c.optimized + 1;
        c.memo_generated <- c.memo_generated + planned.Core.Optimizer.stats.Core.Enumerator.generated;
        c.memo_retained <- c.memo_retained + planned.Core.Optimizer.stats.Core.Enumerator.retained;
        let p = { Sql.bound; planned } in
        span ctx "server.plan_cache" (fun () ->
            Server.Plan_cache.store ctx.cache ~key ~epoch p);
        (p, false, miss <> Server.Plan_cache.Absent)
  in
  let columns, rows, scores, executed =
    match (cursor_name, eff_k) with
    | Some name, Some fetch_k when Sql.cursor_eligible prepared ->
        let cur, (rows, scores) =
          span ctx "exec.execute" (fun () ->
              let cur = Sql.open_cursor ctx.cat prepared in
              (cur, Sql.cursor_fetch cur fetch_k))
        in
        Hashtbl.replace ctx.cursors name cur;
        (Sql.cursor_columns cur, rows, scores, None)
    | _ ->
        let bound = prepared.Sql.bound in
        if bound.Sqlfront.Binder.aggregation <> None || bound.Sqlfront.Binder.post_sort <> None
        then failwith "replay: aggregation and post-sorts are not replayed";
        let r =
          span ctx "exec.execute" (fun () ->
              Core.Optimizer.execute ctx.cat prepared.Sql.planned)
        in
        let ans =
          span ctx "sqlfront.project" (fun () ->
              let rows =
                match bound.Sqlfront.Binder.post_limit with
                | None -> r.Core.Executor.rows
                | Some k -> List.filteri (fun i _ -> i < k) r.Core.Executor.rows
              in
              Sql.project_rows prepared r.Core.Executor.schema rows)
        in
        (ans.Sql.columns, ans.Sql.rows, ans.Sql.scores, Some (prepared.Sql.planned, r))
  in
  c.rows <- c.rows + List.length rows;
  ( {
      Server.Service.columns;
      rows;
      scores;
      affected = None;
      cached;
      reoptimized;
      latency_s = float (Num.now_ns () - start) /. 1e9;
    },
    executed )

(* [Sql.run_update]: parse, bind the predicate and assignments, then the two
   storage calls. *)
let run_update ctx ~start text =
  let stmt =
    span ctx "sqlfront.parse" (fun () -> Sqlfront.Parser.parse_statement_result text)
    |> get "parse"
  in
  match stmt with
  | Sqlfront.Ast.Update { table; assignments; where } ->
      let schema = (Storage.Catalog.table ctx.cat table).Storage.Catalog.tb_schema in
      let pred, set =
        span ctx "sqlfront.bind" (fun () ->
            let q =
              {
                Sqlfront.Ast.select = [ Sqlfront.Ast.Star ];
                from = [ table ];
                where;
                rank_between = None;
                rank_dense = false;
                group_by = [];
                order_by = None;
                limit = None;
                limit_param = false;
              }
            in
            let bound = get "bind" (Sqlfront.Binder.bind_result ctx.cat q) in
            let rel = Core.Logical.find_relation bound.Sqlfront.Binder.logical table in
            let pred =
              Option.value rel.Core.Logical.filter
                ~default:(Relalg.Expr.Const (Relalg.Value.Bool true))
            in
            let set =
              List.map
                (fun (column, e) ->
                  let f =
                    Relalg.Expr.compile schema
                      (Sqlfront.Binder.bind_single_table_expr ctx.cat table e)
                  in
                  (column, f))
                assignments
            in
            (pred, set))
      in
      let n =
        span ctx "storage.update_where" (fun () ->
            Storage.Catalog.update_where ctx.cat ~table pred ~set)
      in
      ignore
        (span ctx "storage.analyze" (fun () -> Storage.Catalog.analyze ctx.cat table)
          : Storage.Catalog.table_info);
      {
          Server.Service.columns = [];
          rows = [];
          scores = [];
          affected = Some n;
          cached = false;
          reoptimized = false;
          latency_s = float (Num.now_ns () - start) /. 1e9;
        }
  | _ -> failwith ("replay: not an UPDATE: " ^ text)

let is_update sql =
  let s = String.trim sql in
  String.length s > 6 && String.uppercase_ascii (String.sub s 0 6) = "UPDATE"

let template ctx sql =
  span ctx "sqlfront.parse" (fun () -> Sql.template_of_sql sql) |> get "parse"

(* One statement of the single-node stack: what the listener does for a
   protocol line, then what the service does for the command. *)
let single ctx line =
  let io0 = Storage.Io_stats.snapshot (Storage.Catalog.io ctx.cat) in
  let executed =
    Spans.statement ctx.sp "stmt" (fun () ->
        let start = Num.now_ns () in
        let cmd = span ctx "server.protocol" (fun () -> P.parse_command line) in
        let reply (r, executed) = (Reply r, executed) in
        let answer, executed =
          match cmd with
          | Ok (P.Prepare { name; sql }) ->
              let tpl = template ctx sql in
              Hashtbl.replace ctx.templates name tpl;
              (Response ([ ("prepared", name) ], [ tpl.Sql.tpl_text ]), None)
          | Ok (P.Execute { name; k }) ->
              reply
                (run_template ctx ~start ?k ~cursor_name:name
                   (Hashtbl.find ctx.templates name))
          | Ok (P.Query sql) when is_update sql -> (Reply (run_update ctx ~start sql), None)
          | Ok (P.Query sql) -> reply (run_template ctx ~start (template ctx sql))
          | Ok (P.Rank { table; column; value; dense = false }) ->
              let rank, total =
                span ctx "storage.rank_probe" (fun () ->
                    let key = Relalg.Expr.col ~relation:table column in
                    let ix =
                      List.find
                        (fun ix -> Relalg.Expr.equal ix.Storage.Catalog.ix_key key)
                        (Storage.Catalog.indexes_on ctx.cat table)
                    in
                    let bt = ix.Storage.Catalog.ix_btree in
                    ( (match Storage.Rank_index.rank_of_value bt value with
                      | Some r -> string_of_int r
                      | None -> "none"),
                      string_of_int (Storage.Rank_index.total bt) ))
              in
              (Response ([ ("rank", rank); ("of", total) ], []), None)
          | _ -> failwith ("replay: unsupported statement " ^ line)
        in
        ignore
          (span ctx "server.render" (fun () ->
               P.render
                 (match answer with
                 | Reply r -> P.render_reply r
                 | Response (fields, payload) -> P.ok_response ~fields payload))
            : string list);
        executed)
  in
  let c = ctx.c in
  c.stmts <- c.stmts + 1;
  let io = Storage.Io_stats.diff (Storage.Io_stats.snapshot (Storage.Catalog.io ctx.cat)) io0 in
  c.page_reads <- c.page_reads + io.Storage.Io_stats.page_reads;
  c.pool_hits <- c.pool_hits + io.Storage.Io_stats.pool_hits;
  c.index_node_reads <- c.index_node_reads + io.Storage.Io_stats.index_node_reads;
  c.tuples_read <- c.tuples_read + io.Storage.Io_stats.tuples_read;
  Option.iter (fun (planned, r) -> count_execution c planned r) executed

(* One statement through the in-process shard coordinator. *)
let coordinated ctx ses line =
  let ok = function
    | Ok v -> v
    | Error e -> failwith (line ^ ": " ^ Server.Service.error_message e)
  in
  let executed =
    Spans.statement ctx.sp "stmt.coord" (fun () ->
        match span ctx "server.protocol" (fun () -> P.parse_command line) with
        | Ok (P.Prepare { name; sql }) ->
            ignore
              (ok (span ctx "shard.prepare" (fun () -> Shard.Coordinator.prepare ses ~name sql))
                : Sql.template);
            None
        | Ok (P.Execute { name; k }) ->
            let r =
              ok
                (span ctx "shard.coordinator" (fun () ->
                     Shard.Coordinator.execute_prepared ses ?k name))
            in
            ignore
              (span ctx "server.render" (fun () ->
                   P.render
                     (P.render_reply
                        {
                          Server.Service.columns = r.Shard.Coordinator.columns;
                          rows = r.Shard.Coordinator.rows;
                          scores = r.Shard.Coordinator.scores;
                          affected = None;
                          cached = false;
                          reoptimized = false;
                          latency_s = r.Shard.Coordinator.latency_s;
                        }))
                : string list);
            Some (r, Option.value k ~default:0)
        | _ -> failwith ("replay: unsupported coordinator statement " ^ line))
  in
  let c = ctx.c in
  Option.iter
    (fun ((r : Shard.Coordinator.reply), k) ->
      c.coord_stmts <- c.coord_stmts + 1;
      if r.Shard.Coordinator.scattered then begin
        let ds = r.Shard.Coordinator.depths in
        c.scattered <- c.scattered + 1;
        c.rows_pulled <- c.rows_pulled + Array.fold_left ( + ) 0 ds;
        c.pull_bound <- c.pull_bound + (Array.length ds * k);
        c.depth_max <- max c.depth_max (Array.fold_left max 0 ds)
      end)
    executed

(* ---- a replay --------------------------------------------------------- *)

(* Statements replayed per second of the run, per workload: the traced and
   the untraced replay together take roughly the run's length. The count
   depends only on the workload and [--seconds], so the counters repeat. *)
let per_second = function
  | Mix.Dashboard -> 6000
  | Mix.Adhoc -> 30
  | Mix.Leaderboard -> 30
  | Mix.Shard -> 250

let statements kind ~seconds = max 20 (per_second kind * seconds / 2)

(* The stream a replay runs: the workload's PREPAREs, then the warm-up
   and the first [n] statements of the measured stream. *)
let stream kind ~smoke ~seed ~n =
  let warm, lines = Mix.streams kind ~smoke ~seed in
  let measured = Array.init n (fun i -> lines.(i mod Array.length lines)) in
  Array.concat
    [
      Array.of_list
        (List.map (fun (name, sql) -> Printf.sprintf "PREPARE %s %s" name sql) (Mix.prepares kind));
      warm;
      measured;
    ]

type outcome = { sp : Spans.t; counts : counts; wall_s : float }

let replay kind ~smoke ~seed ~n ~enabled ~dir =
  let cat = Mix.build_catalog kind ~smoke in
  let lines = stream kind ~smoke ~seed ~n in
  let ctx =
    {
      cat;
      cache = Server.Plan_cache.create ();
      templates = Hashtbl.create 8;
      cursors = Hashtbl.create 8;
      sp = Spans.create ~enabled;
      c = new_counts ();
    }
  in
  let run_all each =
    Gc.full_major ();
    let t0 = Num.now_ns () in
    Array.iter each lines;
    float (Num.now_ns () - t0) /. 1e9
  in
  let wall_s =
    match kind with
    | Mix.Shard ->
        let cdir = Filename.concat dir (if enabled then "trace-on" else "trace-off") in
        Unix.mkdir cdir 0o700;
        let config = { Server.Service.default_config with workers = Mix.workers kind } in
        let cl = Shard.Cluster.start ~config ~dir:cdir ~n:Mix.shards cat in
        Fun.protect ~finally:(fun () -> Shard.Cluster.stop cl) @@ fun () ->
        let ses = Shard.Coordinator.open_session (Shard.Cluster.coordinator cl) in
        Fun.protect ~finally:(fun () -> Shard.Coordinator.close_session ses)
        @@ fun () ->
        run_all (fun line ->
            coordinated ctx ses line;
            single ctx line)
    | Mix.Dashboard | Mix.Adhoc | Mix.Leaderboard -> run_all (single ctx)
  in
  Hashtbl.iter (fun _ cur -> Sql.cursor_close cur) ctx.cursors;
  { sp = ctx.sp; counts = ctx.c; wall_s }

(* ---- per-layer metrics ------------------------------------------------ *)

let layers = [ "server"; "sqlfront"; "core"; "exec"; "storage" ]

(* The exact counters, as the per-layer metrics that carry them. *)
let count_metrics c =
  let per_stmt x = float x /. float (max 1 c.stmts) in
  let ratio a b = if b = 0 then 0.0 else float a /. float b in
  let lookups = c.hits + c.stale + c.interval_miss + c.absent in
  [
    ("core.memo_generated", ratio c.memo_generated c.optimized, "count/opt");
    ("core.memo_retained", ratio c.memo_retained c.optimized, "count/opt");
    ( "core.depth_ratio",
      (match c.depth_ratios with [] -> 0.0 | l -> Num.median (Array.of_list l)),
      "ratio" );
    ("exec.rank_join_depth", per_stmt c.rank_depth, "count/stmt");
    ("exec.buffer_max", float c.buffer_max, "count");
    ("exec.tuples_per_row", ratio c.tuples_read c.rows, "ratio");
    ("storage.page_reads_per_stmt", per_stmt c.page_reads, "count/stmt");
    ("storage.pool_hit_ratio", ratio c.pool_hits (c.pool_hits + c.page_reads), "ratio");
    ("storage.index_node_reads_per_stmt", per_stmt c.index_node_reads, "count/stmt");
    ("server.plan_cache.hit_ratio", ratio c.hits lookups, "ratio");
    ("server.plan_cache.stale", float c.stale, "count");
    ("server.plan_cache.interval_miss", float c.interval_miss, "count");
    ("server.reoptimized_frac", ratio (c.stale + c.interval_miss) lookups, "ratio");
    ("shard.rows_pulled_per_stmt", ratio c.rows_pulled c.scattered, "count/stmt");
    ("shard.pull_ratio", ratio c.rows_pulled c.pull_bound, "ratio");
    ("shard.depth_max", float c.depth_max, "count");
    ("shard.scattered_frac", ratio c.scattered c.coord_stmts, "ratio");
  ]

type traced = {
  per_layer : Num.metric list;
  exact : (string * float) list;  (* the counters, for determinism checks *)
  extra : (string * float) list;  (* per-span self times, informational *)
  problems : string list;
}

let summarize kind ~off ~on =
  let sp = on.sp in
  let self = Spans.self_times sp in
  (* Root span of each statement; statement ids start at 1. *)
  let root = Array.make (sp.Spans.stmt_id + 1) (-1) in
  for i = sp.Spans.n - 1 downto 0 do
    if sp.Spans.parent.(i) < 0 then root.(sp.Spans.stmt.(i)) <- i
  done;
  let is_single i = sp.Spans.names.(root.(sp.Spans.stmt.(i))) = "stmt" in
  let roots name =
    List.filter (fun i -> i >= 0 && sp.Spans.names.(i) = name) (Array.to_list root)
  in
  let singles = roots "stmt" and coords = roots "stmt.coord" in
  let n_single = float (List.length singles) in
  let layer_self = Hashtbl.create 8 and by_name = Hashtbl.create 32 in
  for i = 0 to sp.Spans.n - 1 do
    let name = sp.Spans.names.(i) in
    if sp.Spans.parent.(i) >= 0 && is_single i then begin
      let l = Spans.layer name in
      Hashtbl.replace layer_self l (self.(i) + Option.value ~default:0 (Hashtbl.find_opt layer_self l))
    end;
    if sp.Spans.parent.(i) >= 0 then
      Hashtbl.replace by_name name (float self.(i) /. 1e3 :: Option.value ~default:[] (Hashtbl.find_opt by_name name))
  done;
  let us l = float (Option.value ~default:0 (Hashtbl.find_opt layer_self l)) /. 1e3 /. n_single in
  let durations rs = Array.of_list (List.map (fun i -> float (Spans.duration sp i) /. 1e3) rs) in
  let root_total = List.fold_left (fun a i -> a + Spans.duration sp i) 0 singles in
  let root_self = List.fold_left (fun a i -> a + self.(i)) 0 singles in
  let over_10pct =
    List.length (List.filter (fun i -> 10 * self.(i) > Spans.duration sp i) singles)
  in
  let coord_ratio =
    match coords with
    | [] -> 0.0
    | _ -> Num.median (durations coords) /. Num.median (durations singles)
  in
  let counts = count_metrics on.counts in
  let per_layer =
    List.map (fun l -> { Num.name = l ^ ".self_us"; value = us l; unit_ = "us" }) layers
    @ List.map (fun (name, value, unit_) -> { Num.name; value; unit_ }) counts
    @ [
        { name = "shard.coord_overhead_ratio"; value = coord_ratio; unit_ = "ratio" };
        { name = "trace.overhead_frac"; value = (on.wall_s -. off.wall_s) /. off.wall_s; unit_ = "ratio" };
        { name = "trace.unattributed_frac"; value = float root_self /. float (max 1 root_total); unit_ = "ratio" };
      ]
  in
  let extra =
    [
      ("statements", n_single);
      ("stmt_p50_us", Num.median (durations singles));
      ("stmts_unattributed_over_10pct", float over_10pct);
    ]
    @ (match coords with
      | [] -> []
      | _ ->
          [
            ( "shard.coord_overhead_us",
              Num.median (durations coords) -. Num.median (durations singles) );
          ])
    @ (Hashtbl.fold (fun name xs acc -> (name, Array.of_list xs) :: acc) by_name []
      |> List.sort compare
      |> List.concat_map (fun (name, xs) ->
             [
               (name ^ ".p50_us", Num.median xs);
               (name ^ ".mean_us", Num.mean xs);
               (name ^ ".calls", float (Array.length xs));
             ]))
  in
  let exact = List.map (fun (name, v, _) -> (name, v)) counts in
  let problems =
    if exact = List.map (fun (name, v, _) -> (name, v)) (count_metrics off.counts) then []
    else [ "counters differ between the untraced and the traced replay of " ^ Mix.name kind ]
  in
  { per_layer; exact; extra; problems }

let run kind ~smoke ~seed ~seconds ~dir ~trace_file =
  let n = statements kind ~seconds in
  let off = replay kind ~smoke ~seed ~n ~enabled:false ~dir in
  Gc.full_major ();
  let on = replay kind ~smoke ~seed ~n ~enabled:true ~dir in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Spans.write on.sp oc))
    trace_file;
  summarize kind ~off ~on
