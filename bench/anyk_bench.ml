(* Any-k cursor continuation vs re-planned top-k re-execution.

   The incremental-fetch regime the cursor work exists for: a client keeps
   asking for "the next [batch] answers" of a ranked join. With a cursor,
   EXECUTE pays the any-k build once and every FETCH NEXT resumes the
   suspended enumeration; without one, the client must re-submit the query
   with a larger LIMIT each round, paying parse + optimize + a from-scratch
   execution of the rank-join at the new k every time.

   Reported per checkpoint k (cumulative answers delivered):
   - cursor_cum:  EXECUTE(batch) + all FETCH NEXT batches up to k;
   - replan_cum:  sum of one-shot runs at batch, 2*batch, ..., k — what a
     cursor-less incremental client actually pays;
   - replan_one:  a single one-shot run at k — the floor a cursor-less
     client could reach with perfect foresight of k.

   The crossover fields record the first checkpoint where the cursor's
   cumulative cost drops below each baseline (0 = never).

   A second row times the any-k build alone at the scale of the perfbench
   adhoc workload: tables A, B, C of 16 000 rows over a key domain of
   8 000, joined in a 3-way chain at k = 200. It reports the median
   s_open time over 5 runs, the minor words one s_open allocates, and the
   build's counts (tuples drained, survivors, key groups, groups whose tail
   was sorted).

   Each row is appended to BENCH_RANKOPT.json (smoke mode prints reduced
   rows without appending, so `make ci` stays clean-tree). *)

let bench_file = "BENCH_RANKOPT.json"

let wall f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

let sql =
  "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY 0.5*A.score + \
   0.5*B.score DESC LIMIT ?"

let substitute_k sql k =
  String.concat (string_of_int k) (String.split_on_char '?' sql)

let ok_or what = function
  | Ok r -> r
  | Error e -> failwith (what ^ ": " ^ Server.Service.error_message e)

let append row =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
  output_string oc row;
  output_char oc '\n';
  close_out oc;
  Printf.printf "(1 row appended to %s)\n" bench_file

let chain_sql =
  "SELECT A.id, B.id, C.id FROM A, B, C WHERE A.key = B.key AND B.key = \
   C.key ORDER BY 0.3*A.score + 0.3*B.score + 0.4*C.score DESC LIMIT 200"

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let build_row ~smoke =
  Bench_util.section "anyk: build (s_open) of a 3-way chain at k=200";
  let n = if smoke then 2000 else 16000 in
  let domain = n / 2 and k = 200 and runs = if smoke then 3 else 5 in
  let catalog =
    Bench_util.three_table_catalog ~n ~pool_frames:256 ~domain ~seed:101 ()
  in
  let plan, expected =
    let ( let* ) = Result.bind in
    match
      let* tpl = Sqlfront.Sql.template_of_sql chain_sql in
      let* ast = Sqlfront.Sql.instantiate tpl () in
      let* p = Sqlfront.Sql.prepare_ast catalog ast in
      let* ans = Sqlfront.Sql.query catalog chain_sql in
      Ok
        ( Core.Plan.describe p.Sqlfront.Sql.planned.Core.Optimizer.plan,
          ans.Sqlfront.Sql.scores )
    with
    | Ok r -> r
    | Error e -> failwith ("anyk build bench: " ^ e)
  in
  let tables = [ ("A", 0.3); ("B", 0.3); ("C", 0.4) ] in
  let inputs =
    List.map
      (fun (t, w) ->
        let info = Storage.Catalog.table catalog t in
        let schema = info.Storage.Catalog.tb_schema in
        {
          Exec.Any_k.i_op = Exec.Scan.heap info;
          i_score =
            Relalg.Expr.compile_float schema
              Relalg.Expr.(cfloat w * col ~relation:t "score");
        })
      tables
  in
  let schema_of t = (Storage.Catalog.table catalog t).Storage.Catalog.tb_schema in
  let key t = Relalg.Expr.compile (schema_of t) (Relalg.Expr.col ~relation:t "key") in
  let schema =
    List.fold_left
      (fun acc (t, _) -> Relalg.Schema.concat acc (schema_of t))
      (schema_of "A") (List.tl tables)
  in
  let stream, counts =
    Exec.Any_k.enumerate_counted ~schema ~inputs
      ~keys:[ (0, key "A", key "B"); (1, key "B", key "C") ]
      ()
  in
  let scores = ref [] and words = ref 0.0 in
  let times =
    List.init runs (fun _ ->
        let w0 = Gc.minor_words () in
        let dt, () = wall stream.Exec.Operator.s_open in
        words := Gc.minor_words () -. w0;
        scores :=
          List.filter_map
            (fun _ -> Option.map snd (stream.Exec.Operator.s_next ()))
            (List.init k Fun.id);
        stream.Exec.Operator.s_close ();
        dt)
  in
  let c = counts () in
  let correct = List.equal Float.equal !scores expected in
  let open_ms = 1000.0 *. median times in
  Bench_util.row "optimizer plan for the query: %s\n" plan;
  Bench_util.row
    "open median %.2f ms over %d runs, %.0f minor words; drained %d, \
     survivors %d, groups %d, groups sorted %d%s\n"
    open_ms runs !words c.drained c.survivors c.groups c.groups_sorted
    (if correct then "" else "  [SCORES DIVERGE]");
  let row =
    Printf.sprintf
      "{\"bench\":\"anyk_build\",\"n\":%d,\"domain\":%d,\"inputs\":3,\"k\":%d,\
       \"runs\":%d,\"cores\":%d,\"open_ms\":%.2f,\"open_minor_words\":%.0f,\
       \"drained\":%d,\"survivors\":%d,\"groups\":%d,\"groups_sorted\":%d,\
       \"correct\":%b}"
      n domain k runs
      (Domain.recommended_domain_count ())
      open_ms !words c.drained c.survivors c.groups c.groups_sorted correct
  in
  print_endline row;
  if not smoke then append row

let run ?(smoke = false) () =
  Bench_util.section "anyk: cursor FETCH NEXT vs re-planned top-k";
  let n = if smoke then 4000 else 12000 in
  let domain = 50 in
  let batch = 20 in
  let steps = if smoke then 8 else 32 in
  let k_max = batch * steps in
  let catalog =
    Bench_util.two_table_catalog ~n ~pool_frames:256 ~domain ~seed:7 ()
  in
  (* Warm the buffer pool so both sides measure compute, not cold I/O. *)
  ignore (Sqlfront.Sql.query catalog (substitute_k sql k_max));
  let eligible, replan_desc =
    let ( let* ) r f = match r with Ok x -> f x | Error e -> Error e in
    let probe =
      let* tpl = Sqlfront.Sql.template_of_sql sql in
      let* ast = Sqlfront.Sql.instantiate tpl ~k:batch () in
      Sqlfront.Sql.prepare_ast catalog ast
    in
    match probe with
    | Ok p ->
        ( Sqlfront.Sql.cursor_eligible p,
          Core.Plan.describe p.Sqlfront.Sql.planned.Core.Optimizer.plan )
    | Error e -> failwith ("anyk bench prepare: " ^ e)
  in
  let config = { Server.Service.default_config with workers = 2 } in
  let svc = Server.Service.create ~config catalog in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let sess = Server.Service.open_session svc in
  ignore
    (ok_or "prepare" (Server.Service.prepare sess ~name:"q" sql)
      : Sqlfront.Sql.template);
  (* Cursor side: one EXECUTE, then FETCH NEXT per checkpoint. *)
  let cursor_scores = ref [] in
  let note reply =
    cursor_scores := List.rev_append reply.Server.Service.scores !cursor_scores
  in
  let exec_s, first =
    wall (fun () ->
        ok_or "execute" (Server.Service.execute_prepared sess ~k:batch "q"))
  in
  note first;
  let cursor_cum = Array.make (steps + 1) 0.0 in
  cursor_cum.(1) <- exec_s;
  for i = 2 to steps do
    let dt, reply =
      wall (fun () ->
          ok_or "fetch" (Server.Service.fetch sess ~name:"q" batch))
    in
    note reply;
    cursor_cum.(i) <- cursor_cum.(i - 1) +. dt
  done;
  ignore (Server.Service.close_cursor sess "q");
  (* Re-plan side: a fresh parse + optimize + execute per checkpoint. *)
  let replan_one = Array.make (steps + 1) 0.0 in
  let replan_cum = Array.make (steps + 1) 0.0 in
  let oneshot_scores = ref [] in
  for i = 1 to steps do
    let k = batch * i in
    let dt, ans =
      wall (fun () ->
          match Sqlfront.Sql.query catalog (substitute_k sql k) with
          | Ok a -> a
          | Error e -> failwith ("anyk bench replan: " ^ e))
    in
    replan_one.(i) <- dt;
    replan_cum.(i) <- replan_cum.(i - 1) +. dt;
    if i = steps then oneshot_scores := ans.Sqlfront.Sql.scores
  done;
  (* The cursor's concatenated stream must carry exactly the scores of a
     one-shot run at k_max (tuple-level identity is the test suite's job). *)
  let correct =
    let sort = List.sort Float.compare in
    List.equal Float.equal
      (sort (List.rev !cursor_scores))
      (sort !oneshot_scores)
  in
  let crossover arr =
    let rec go i =
      if i > steps then 0
      else if cursor_cum.(i) < arr.(i) then batch * i
      else go (i + 1)
    in
    go 1
  in
  let cross_cum = crossover replan_cum in
  let cross_one = crossover replan_one in
  let fetch_avg_ms =
    1000.0 *. (cursor_cum.(steps) -. exec_s) /. float_of_int (steps - 1)
  in
  Bench_util.row "replanned plan: %s%s\n" replan_desc
    (if eligible then "; statement is cursor-eligible (any-k)"
     else "; statement is NOT cursor-eligible");
  Bench_util.row "%-10s %14s %14s %14s\n" "k" "cursor_cum" "replan_cum"
    "replan_one";
  let stride = if smoke then 1 else 4 in
  for i = 1 to steps do
    if i = 1 || i = steps || i mod stride = 0 then
      Bench_util.row "%-10d %13.4fs %13.4fs %13.4fs\n" (batch * i)
        cursor_cum.(i) replan_cum.(i) replan_one.(i)
  done;
  Bench_util.row
    "execute(batch=%d) %.4fs; fetch avg %.3fms/batch; crossover vs \
     cumulative re-plan at k=%d, vs one-shot re-plan at k=%d%s\n"
    batch exec_s fetch_avg_ms cross_cum cross_one
    (if correct then "" else "  [SCORES DIVERGE]");
  let row =
    Printf.sprintf
      "{\"bench\":\"anyk\",\"n\":%d,\"domain\":%d,\"batch\":%d,\"k_max\":%d,\
       \"cores\":%d,\"eligible\":%b,\"exec_s\":%.5f,\"fetch_avg_ms\":%.4f,\
       \"cursor_cum_s\":%.5f,\"replan_cum_s\":%.5f,\"replan_one_s\":%.5f,\
       \"crossover_cum_k\":%d,\"crossover_one_k\":%d,\"correct\":%b}"
      n domain batch k_max
      (Domain.recommended_domain_count ())
      eligible exec_s fetch_avg_ms cursor_cum.(steps) replan_cum.(steps)
      replan_one.(steps) cross_cum cross_one correct
  in
  print_endline row;
  if not smoke then append row;
  build_row ~smoke
