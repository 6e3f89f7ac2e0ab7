type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  default_timeout_s : float;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    cache_capacity = 128;
    default_timeout_s = 30.0;
  }

type error =
  | Parse_error of string
  | Bind_error of string
  | Plan_error of string
  | Exec_error of string
  | Timeout
  | Queue_full of string
  | Unknown_prepared of string
  | Unknown_cursor of string
  | Cursor_stale of string
  | Shutting_down

let error_code = function
  | Parse_error _ -> "PARSE"
  | Bind_error _ -> "BIND"
  | Plan_error _ -> "PLAN"
  | Exec_error _ -> "EXEC"
  | Timeout -> "TIMEOUT"
  | Queue_full _ -> "QUEUE_FULL"
  | Unknown_prepared _ -> "UNKNOWN_PREPARED"
  | Unknown_cursor _ -> "UNKNOWN_CURSOR"
  | Cursor_stale _ -> "CURSOR_STALE"
  | Shutting_down -> "SHUTDOWN"

let error_message = function
  | Parse_error m | Bind_error m | Plan_error m | Exec_error m -> m
  | Timeout -> "statement exceeded its deadline"
  | Queue_full who ->
      Printf.sprintf "worker queue full; statement %S shed" who
  | Unknown_prepared n -> Printf.sprintf "no prepared statement named %S" n
  | Unknown_cursor n -> Printf.sprintf "no open cursor named %S" n
  | Cursor_stale name ->
      Printf.sprintf
        "cursor %S invalidated: statistics of its tables changed since EXECUTE"
        name
  | Shutting_down -> "server is shutting down"

type reply = {
  columns : string list;
  rows : Relalg.Tuple.t list;
  scores : float list;
  affected : int option;
  cached : bool;
  reoptimized : bool;
  latency_s : float;
}

(* A one-shot synchronization cell: the worker fills it, the submitting
   connection thread blocks reading it. *)
module Ivar = struct
  type 'a t = { m : Rkutil.Latch.t; c : Condition.t; mutable v : 'a option }

  let create () =
    {
      m = Rkutil.Latch.create ~name:"server.ivar" ~rank:55 ();
      c = Condition.create ();
      v = None;
    }

  let fill iv v =
    Rkutil.Latch.protect iv.m (fun () ->
        iv.v <- Some v;
        Condition.broadcast iv.c)

  let read iv =
    (* Waiting for a worker is a blocking operation: doing it while
       holding any Short-class latch would be an LK03 hazard. *)
    Rkutil.Latch.blocking "service.await";
    Rkutil.Latch.protect iv.m (fun () ->
        while Option.is_none iv.v do
          Rkutil.Latch.wait iv.c iv.m
        done;
        Option.get iv.v)
end

type t = {
  cat : Storage.Catalog.t;
  config : config;
  cache : Plan_cache.t;
  lock : Rkutil.Latch.Rw.rw;
  metrics : Metrics.t;
  pool : Rkutil.Task_pool.t;
      (* The worker domains: each job runs one whole statement, serially;
         no job ever waits on another job of the pool. *)
  queued : int Atomic.t;  (* statements admitted but not yet started *)
  inflight : int Atomic.t;
      (* statements admitted whose reply has not been filled yet; the
         graceful-shutdown drain waits for this to reach zero *)
  stopping : bool Atomic.t;
  active_sessions : int Atomic.t;
}

(* An open cursor: a suspended enumerable statement. The deadline ref is
   the state the cursor's interrupt closure reads — each FETCH writes its
   own deadline there before pulling, so one slow fetch cannot consume a
   later fetch's budget. The epoch pins the statistics state the plan was
   built against: any DML bump invalidates the cursor (its materialized
   anyK state would be stale). *)
type open_cursor = {
  oc_cursor : Sqlfront.Sql.cursor;
  oc_tables : string list;  (* the statement's FROM tables *)
  oc_epoch : int;
  oc_deadline : float ref;
}

type session = {
  svc : t;
  stmts : (string, Sqlfront.Sql.template) Hashtbl.t;
  cursors : (string, open_cursor) Hashtbl.t;
  slock : Rkutil.Latch.t;
  smetrics : Metrics.t;
  mutable stimeout : float option;
      (* session default deadline override (TIMEOUT verb); a per-call
         [?timeout_s] still wins *)
}

let create ?(config = default_config) cat =
  let config = { config with workers = max 1 config.workers } in
  {
    cat;
    config;
    cache = Plan_cache.create ~capacity:config.cache_capacity ();
    (* Writer-preferring: a waiting DML blocks new readers, so updates
       cannot starve under a steady query load. Long-class by design: it
       is held across whole statements, page-fault I/O included. *)
    lock =
      Rkutil.Latch.Rw.create ~name:"server.catalog.rwlock" ~rank:20
        ~cls:Rkutil.Latch.Long ();
    metrics = Metrics.create ();
    pool = Rkutil.Task_pool.create ~domains:config.workers;
    queued = Atomic.make 0;
    inflight = Atomic.make 0;
    stopping = Atomic.make false;
    active_sessions = Atomic.make 0;
  }

let shutdown t =
  Atomic.set t.stopping true;
  Rkutil.Task_pool.shutdown t.pool

(* Graceful shutdown, phase one: reject new statements ([submit] answers
   [Shutting_down]) while statements already admitted keep their workers
   and deliver their replies. *)
let begin_drain t = Atomic.set t.stopping true

(* Phase two: wait (bounded) until every in-flight statement has filled
   its reply. Returns [true] if the service fully drained. *)
let drain ?(timeout_s = 5.0) t =
  Rkutil.Latch.blocking "service.drain";
  let deadline = Unix.gettimeofday () +. timeout_s in
  while Atomic.get t.inflight > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Atomic.get t.inflight = 0

let inflight t = Atomic.get t.inflight

let sessions t = Atomic.get t.active_sessions

let open_session t =
  Atomic.incr t.active_sessions;
  {
    svc = t;
    stmts = Hashtbl.create 8;
    cursors = Hashtbl.create 4;
    slock = Rkutil.Latch.create ~name:"server.session" ~rank:30 ();
    smetrics = Metrics.create ();
      stimeout = None;
  }

let close_cursor_entry oc =
  try Sqlfront.Sql.cursor_close oc.oc_cursor with _ -> ()

(* Remove and return the cursor under [name], if any. *)
let take_cursor sess name =
  Rkutil.Latch.protect sess.slock (fun () ->
      match Hashtbl.find_opt sess.cursors name with
      | Some oc ->
          Hashtbl.remove sess.cursors name;
          Some oc
      | None -> None)

let drop_cursor sess name =
  match take_cursor sess name with
  | Some oc ->
      close_cursor_entry oc;
      true
  | None -> false

let close_session s =
  Atomic.decr s.svc.active_sessions;
  let cursors =
    Rkutil.Latch.protect s.slock (fun () ->
        let cs = Hashtbl.fold (fun _ oc acc -> oc :: acc) s.cursors [] in
        Hashtbl.reset s.cursors;
        Hashtbl.reset s.stmts;
        cs)
  in
  List.iter close_cursor_entry cursors

(* Hand [f] to a pool worker; block until it completes, the deadline
   cancels it, or admission control sheds it. *)
let submit t ~label ~deadline (f : unit -> ('a, error) result) :
    ('a, error) result =
  let iv = Ivar.create () in
  if Atomic.get t.stopping then Error Shutting_down
  else if Atomic.get t.queued >= t.config.queue_capacity then begin
    Metrics.record_shed t.metrics;
    Error (Queue_full label)
  end
  else begin
    Atomic.incr t.queued;
    Atomic.incr t.inflight;
    let job () =
      Atomic.decr t.queued;
      (if Unix.gettimeofday () > deadline then Ivar.fill iv (Error Timeout)
       else
         let r =
           try f () with
           | Core.Executor.Interrupted -> Error Timeout
           | exn -> Error (Exec_error (Printexc.to_string exn))
         in
         Ivar.fill iv r);
      (* The reply is delivered: this statement no longer blocks a drain. *)
      Atomic.decr t.inflight
    in
    if Rkutil.Task_pool.submit t.pool job then Ivar.read iv
    else begin
      Atomic.decr t.queued;
      Atomic.decr t.inflight;
      Error Shutting_down
    end
  end

let record_outcome t s ~latency_s = function
  | Ok _ ->
      Metrics.record_query t.metrics ~latency_s;
      Metrics.record_query s.smetrics ~latency_s
  | Error Timeout ->
      Metrics.record_timeout t.metrics;
      Metrics.record_timeout s.smetrics
  | Error (Queue_full _) -> Metrics.record_shed s.smetrics  (* server side counted at shed *)
  | Error _ ->
      Metrics.record_error t.metrics;
      Metrics.record_error s.smetrics

(* The cached SELECT path: plan-cache lookup on (template, epoch, k);
   hits rebind k in place, misses (re-)optimize and store the variant.

   When [cursor_name] is supplied (the EXECUTE path) and the prepared
   statement is cursor-eligible, the first k answers are pulled through a
   cursor which is then parked in the session under that name, so later
   FETCH NEXT calls resume the same suspended enumeration — the prefix the
   EXECUTE returned plus all fetch continuations are tuple-identical to a
   one-shot execution at a larger k. A non-eligible EXECUTE (or plain
   QUERY) runs one-shot; either way any previous cursor under the name is
   dropped first, never silently resumed across re-executions.

   The k bind value is validated before the plan cache is consulted:
   k <= 0 must neither execute nor poison the cache with a variant whose
   Top-k can never be rebound (Optimizer.rebind_k requires k >= 1). *)
let run_template sess ?timeout_s ?k ?cursor_name (tpl : Sqlfront.Sql.template) =
  let t = sess.svc in
  let timeout =
    match timeout_s with
    | Some x -> x
    | None ->
        Option.value sess.stimeout ~default:t.config.default_timeout_s
  in
  let start = Unix.gettimeofday () in
  let deadline = start +. timeout in
  let eff_k =
    match k with Some _ -> k | None -> tpl.Sqlfront.Sql.tpl_inline_k
  in
  (* Per-table epoch: the statement reads exactly its FROM tables, so its
     cache entries and cursors only go stale when one of *those* tables'
     statistics move — DML on unrelated tables is invisible here. *)
  let tables = tpl.Sqlfront.Sql.tpl_ast.Sqlfront.Ast.from in
  let epoch = Storage.Catalog.epoch_of_tables t.cat tables in
  (match cursor_name with
  | Some name -> ignore (drop_cursor sess name)
  | None -> ());
  let result =
    match eff_k with
    | Some bad when bad < 1 ->
        Error
          (Bind_error (Printf.sprintf "bind error: k must be >= 1, got %d" bad))
    | _ ->
        let label =
          match cursor_name with
          | Some name -> name
          | None -> tpl.Sqlfront.Sql.tpl_text
        in
        submit t ~label ~deadline (fun () ->
            let interrupt () = Unix.gettimeofday () > deadline in
            let exec prepared ~cached ~reoptimized =
              match (cursor_name, eff_k) with
              | Some name, Some fetch_k
                when Sqlfront.Sql.cursor_eligible prepared ->
                  Rkutil.Latch.Rw.with_read t.lock (fun () ->
                      let oc_deadline = ref deadline in
                      let cur =
                        Sqlfront.Sql.open_cursor
                          ~interrupt:(fun () ->
                            Unix.gettimeofday () > !oc_deadline)
                          t.cat prepared
                      in
                      match Sqlfront.Sql.cursor_fetch cur fetch_k with
                      | rows, scores ->
                          let ans =
                            {
                              Sqlfront.Sql.columns =
                                Sqlfront.Sql.cursor_columns cur;
                              rows;
                              scores;
                              planned =
                                prepared.Sqlfront.Sql.planned;
                            }
                          in
                          Rkutil.Latch.protect sess.slock (fun () ->
                              Hashtbl.replace sess.cursors name
                                {
                                  oc_cursor = cur;
                                  oc_tables = tables;
                                  oc_epoch = epoch;
                                  oc_deadline;
                                });
                          Ok (ans, cached, reoptimized)
                      | exception e ->
                          Sqlfront.Sql.cursor_close cur;
                          raise e)
              | _ ->
                  Rkutil.Latch.Rw.with_read t.lock (fun () ->
                      match
                        Sqlfront.Sql.run_prepared ~interrupt t.cat prepared
                      with
                      | Ok ans -> Ok (ans, cached, reoptimized)
                      | Error e -> Error (Exec_error e))
            in
            match
              Plan_cache.find t.cache ~key:tpl.Sqlfront.Sql.tpl_text ~epoch
                ~k:eff_k
            with
            | Plan_cache.Hit p -> exec p ~cached:true ~reoptimized:false
            | (Plan_cache.Stale | Plan_cache.Interval_miss | Plan_cache.Absent)
              as miss -> (
                match Sqlfront.Sql.instantiate tpl ?k () with
                | Error e -> Error (Bind_error e)
                | Ok ast -> (
                    match
                      Rkutil.Latch.Rw.with_read t.lock (fun () ->
                          Sqlfront.Sql.prepare_ast t.cat ast)
                    with
                    | Error e -> Error (Plan_error e)
                    | Ok p ->
                        Plan_cache.store t.cache ~key:tpl.Sqlfront.Sql.tpl_text
                          ~epoch p;
                        exec p ~cached:false
                          ~reoptimized:(miss <> Plan_cache.Absent))))
  in
  let latency_s = Unix.gettimeofday () -. start in
  record_outcome t sess ~latency_s result;
  Result.map
    (fun ((ans : Sqlfront.Sql.answer), cached, reoptimized) ->
      {
        columns = ans.Sqlfront.Sql.columns;
        rows = ans.Sqlfront.Sql.rows;
        scores = ans.Sqlfront.Sql.scores;
        affected = None;
        cached;
        reoptimized;
        latency_s;
      })
    result

let prepare sess ~name sql =
  match Sqlfront.Sql.template_of_sql sql with
  | Error e ->
      Metrics.record_error sess.svc.metrics;
      Metrics.record_error sess.smetrics;
      Error (Parse_error e)
  | Ok tpl ->
      Rkutil.Latch.protect sess.slock (fun () -> Hashtbl.replace sess.stmts name tpl);
      Ok tpl

let execute_prepared sess ?timeout_s ?k name =
  match Rkutil.Latch.protect sess.slock (fun () -> Hashtbl.find_opt sess.stmts name) with
  | None -> Error (Unknown_prepared name)
  | Some tpl -> run_template sess ?timeout_s ?k ~cursor_name:name tpl

(* Resume a parked cursor: re-arm its deadline, verify the statistics
   epoch it was planned under still holds (DML in between leaves its
   materialized state stale — close it and report CURSOR_STALE), and pull
   the next [n] ranked answers under the catalog read lock. *)
let fetch sess ?timeout_s ~name n =
  let t = sess.svc in
  let timeout =
    match timeout_s with
    | Some x -> x
    | None ->
        Option.value sess.stimeout ~default:t.config.default_timeout_s
  in
  let start = Unix.gettimeofday () in
  let deadline = start +. timeout in
  let result =
    if n < 1 then
      Error
        (Bind_error (Printf.sprintf "bind error: fetch count must be >= 1, got %d" n))
    else
      match
        Rkutil.Latch.protect sess.slock (fun () -> Hashtbl.find_opt sess.cursors name)
      with
      | None -> Error (Unknown_cursor name)
      | Some oc ->
          submit t ~label:name ~deadline (fun () ->
              if
                Storage.Catalog.epoch_of_tables t.cat oc.oc_tables
                <> oc.oc_epoch
              then begin
                ignore (drop_cursor sess name);
                Error (Cursor_stale name)
              end
              else begin
                oc.oc_deadline := deadline;
                Rkutil.Latch.Rw.with_read t.lock (fun () ->
                    let rows, scores =
                      Sqlfront.Sql.cursor_fetch oc.oc_cursor n
                    in
                    Ok
                      ( Sqlfront.Sql.cursor_columns oc.oc_cursor,
                        rows,
                        scores ))
              end)
  in
  let latency_s = Unix.gettimeofday () -. start in
  record_outcome t sess ~latency_s result;
  Result.map
    (fun (columns, rows, scores) ->
      {
        columns;
        rows;
        scores;
        affected = None;
        cached = true;
        reoptimized = false;
        latency_s;
      })
    result

let close_cursor sess name =
  if drop_cursor sess name then Ok () else Error (Unknown_cursor name)

(* Peek at the leading keyword to route DML to the write-locked path. *)
let is_dml text =
  let text = String.trim text in
  let n = String.length text in
  let rec word_end i =
    if i < n && (text.[i] = '_' || (text.[i] >= 'a' && text.[i] <= 'z')
                 || (text.[i] >= 'A' && text.[i] <= 'Z'))
    then word_end (i + 1)
    else i
  in
  match String.lowercase_ascii (String.sub text 0 (word_end 0)) with
  | "insert" | "delete" | "update" -> true
  | _ -> false

let run_dml sess ?timeout_s text =
  let t = sess.svc in
  let timeout =
    match timeout_s with
    | Some x -> x
    | None ->
        Option.value sess.stimeout ~default:t.config.default_timeout_s
  in
  let start = Unix.gettimeofday () in
  let deadline = start +. timeout in
  let result =
    submit t ~label:text ~deadline (fun () ->
        Rkutil.Latch.Rw.with_write t.lock (fun () ->
            match Sqlfront.Sql.execute t.cat text with
            | Ok (Sqlfront.Sql.Affected n) -> Ok n
            | Ok (Sqlfront.Sql.Rows _) ->
                Error (Exec_error "DML statement returned rows")
            | Error e -> Error (Exec_error e)))
  in
  let latency_s = Unix.gettimeofday () -. start in
  record_outcome t sess ~latency_s result;
  Result.map
    (fun n ->
      {
        columns = [];
        rows = [];
        scores = [];
        affected = Some n;
        cached = false;
        reoptimized = false;
        latency_s;
      })
    result

let query sess ?timeout_s ?k text =
  if is_dml text then run_dml sess ?timeout_s text
  else
    match Sqlfront.Sql.template_of_sql text with
    | Error e ->
        Metrics.record_error sess.svc.metrics;
        Metrics.record_error sess.smetrics;
        Error (Parse_error e)
    | Ok tpl -> run_template sess ?timeout_s ?k tpl

let explain sess text =
  let t = sess.svc in
  match Rkutil.Latch.Rw.with_read t.lock (fun () -> Sqlfront.Sql.explain t.cat text) with
  | Ok s -> Ok s
  | Error e -> Error (Plan_error e)

(* RANK <table>.<column> OF <value>: an O(log n) prefix-count probe of the
   order-statistic index keyed on that column. Runs inline under the read
   lock (no worker round-trip — it touches O(height) pages). *)
let rank_probe sess ?(dense = false) ~table ~column value =
  let t = sess.svc in
  Rkutil.Latch.Rw.with_read t.lock (fun () ->
      match Storage.Catalog.find_table t.cat table with
      | None -> Error (Bind_error (Printf.sprintf "unknown table %s" table))
      | Some _ -> (
          let key = Relalg.Expr.col ~relation:table column in
          match
            List.find_opt
              (fun ix -> Relalg.Expr.equal ix.Storage.Catalog.ix_key key)
              (Storage.Catalog.indexes_on t.cat table)
          with
          | None ->
              Error
                (Plan_error
                   (Printf.sprintf "no rank index on %s.%s" table column))
          | Some ix ->
              let bt = ix.Storage.Catalog.ix_btree in
              if dense then
                Ok
                  ( Storage.Rank_index.dense_rank_of_value bt value,
                    Storage.Rank_index.dense_total bt )
              else
                Ok
                  ( Storage.Rank_index.rank_of_value bt value,
                    Storage.Rank_index.total bt )))

let set_timeout sess timeout_s = sess.stimeout <- timeout_s

let queue_depth t = Atomic.get t.queued

let cache_stats t = Plan_cache.stats t.cache
let cache_entries t = Plan_cache.entries t.cache

let server_metrics t = Metrics.snapshot t.metrics

let catalog t = t.cat

let stats t =
  let m = Metrics.snapshot t.metrics in
  let c = Plan_cache.stats t.cache in
  Metrics.to_fields m
  @ [
      ("cache_hits", string_of_int c.Plan_cache.hits);
      ("cache_misses", string_of_int c.Plan_cache.misses);
      ("cache_reopt_rebinds", string_of_int c.Plan_cache.reopt_rebinds);
      ("cache_invalidations", string_of_int c.Plan_cache.invalidations);
      ("cache_evictions", string_of_int c.Plan_cache.evictions);
      ("cache_entries", string_of_int c.Plan_cache.entries);
      ("cache_variants", string_of_int c.Plan_cache.variants);
      ("cache_hit_rate", Printf.sprintf "%.3f" (Plan_cache.hit_rate c));
      ("queue_depth", string_of_int (queue_depth t));
      ("workers", string_of_int t.config.workers);
      ("sessions", string_of_int (Atomic.get t.active_sessions));
      ("stats_epoch", string_of_int (Storage.Catalog.stats_epoch t.cat));
    ]

let session_stats s =
  let m = Metrics.snapshot s.smetrics in
  Metrics.to_fields m
  @ [
      ( "prepared",
        string_of_int
          (Rkutil.Latch.protect s.slock (fun () -> Hashtbl.length s.stmts)) );
      ( "cursors",
        string_of_int
          (Rkutil.Latch.protect s.slock (fun () -> Hashtbl.length s.cursors)) );
    ]
