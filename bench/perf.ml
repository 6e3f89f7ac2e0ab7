(* Perf baselines on disk.

   Measures wall time for the fig1-style drain query (join + sort + top-k
   over everything), the dashboard join's pull path (minor words, tuples
   read and time per execution), the reply codec (minor words and time
   per rendered or decoded row) and compact serve/lint wall times. Each
   measurement appends one JSON row (one object per line) to
   BENCH_RANKOPT.json so successive changes accumulate a perf trajectory.

   Smoke mode (`make bench-smoke`, the `perf-smoke` experiment) runs a
   reduced-size subset in a few seconds and prints the rows without
   appending — CI runs it and must leave the working tree clean. It exits
   1 when the pull path's counted quantities move (see [pull_pinned]) or
   the reply codec's words per row more than double ([render_pinned]).
   Every row records [Domain.recommended_domain_count ()] as `cores`. *)

let bench_file = "BENCH_RANKOPT.json"

let wall f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

(* Best-of-N: robust against one-off scheduler noise without bechamel's
   startup cost; the drain query runs long enough to dominate timer
   resolution. *)
let time_best ?(repeats = 3) f =
  let rec go best left =
    if left = 0 then best
    else
      let dt, _ = wall f in
      go (Float.min best dt) (left - 1)
  in
  go Float.infinity repeats

let emit ~append rows =
  List.iter print_endline rows;
  if append then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
    List.iter
      (fun r ->
        output_string oc r;
        output_char oc '\n')
      rows;
    close_out oc;
    Printf.printf "(%d row(s) appended to %s)\n" (List.length rows) bench_file
  end

let cores () = Domain.recommended_domain_count ()

(* The fig1-style drain query in the sort-plan regime: a selective join
   (low 1/domain selectivity) makes the rank-join's early-out useless, so
   scan + hash join + sort over everything wins. The plan is the canonical
   [Top_k (Sort (Hash ...))], timed as a fixed plan so the row isolates
   executor speed from plan choice. *)
let drain_rows ~smoke () =
  Bench_util.section "perf: drain query";
  let n = if smoke then 6000 else 16000 in
  let domain = 8 * n in
  let repeats = if smoke then 2 else 3 in
  let cat = Bench_util.two_table_catalog ~n ~pool_frames:256 ~domain ~seed:7 () in
  let k = n / 8 in
  let plan = Core.Plan.Top_k { k; input = Bench_util.sort_plan cat } in
  let dt = time_best ~repeats (fun () -> ignore (Core.Executor.run cat plan)) in
  Bench_util.row "%-34s %10.3fs  (%s)\n" "serial" dt (Core.Plan.describe plan);
  [
    Printf.sprintf
      "{\"bench\":\"drain\",\"n\":%d,\"k\":%d,\"cores\":%d,\"serial_s\":%.4f}"
      n k (cores ()) dt;
  ]

(* The dashboard join's pull path: perfbench's dashboard data (5 000 rows
   per table, key domain 200, data seeds 101/102, 512 frames, so every
   page stays cached) and its first join template, HRJN(B[ix↓],A[ix↓]) at
   k = 10 and 20, executed as the server runs an EXECUTE: open a cursor on
   the prepared plan, fetch k rows, close it. Minor words and tuples read
   per execution are deterministic for a build; the time is reported
   only. *)
let pull_sql k =
  Printf.sprintf
    "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY 0.5*A.score + \
     0.5*B.score DESC LIMIT %d"
    k

(* Per k: minor words and tuples read per execution, as measured with the
   join polling by its threshold terms. perf-smoke fails when an execution
   allocates more than twice the words or reads a different number of
   tuples. *)
let pull_pinned = [ (10, 5453, 266); (20, 9214, 440) ]

let pull_rows ~smoke () =
  Bench_util.section "perf: dashboard join pull path";
  let cat = Storage.Catalog.create ~pool_frames:512 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (101 + i))
           ~name ~n:5000 ~key_domain:200 ()))
    [ "A"; "B" ];
  let io = Storage.Catalog.io cat in
  let runs = if smoke then 50 else 2000 in
  let failed = ref false in
  let rows =
    List.map
      (fun (k, pinned_words, pinned_tuples) ->
        let prepared =
          match
            Result.bind (Sqlfront.Sql.template_of_sql (pull_sql k)) (fun tpl ->
                Result.bind (Sqlfront.Sql.instantiate tpl ())
                  (Sqlfront.Sql.prepare_ast cat))
          with
          | Ok p -> p
          | Error e -> failwith e
        in
        let exec () =
          let cur = Sqlfront.Sql.open_cursor cat prepared in
          ignore (Sys.opaque_identity (Sqlfront.Sql.cursor_fetch cur k));
          Sqlfront.Sql.cursor_close cur
        in
        exec ();
        let before = Storage.Io_stats.snapshot io in
        exec ();
        let tuples =
          (Storage.Io_stats.diff (Storage.Io_stats.snapshot io) before)
            .Storage.Io_stats.tuples_read
        in
        let w0 = Gc.minor_words () in
        let dt, () = wall (fun () -> for _ = 1 to runs do exec () done) in
        let words = (Gc.minor_words () -. w0) /. float_of_int runs in
        let us = dt *. 1e6 /. float_of_int runs in
        Bench_util.row
          "k=%-3d %8.0f minor words  %5d tuples read  %7.1f us  (%s)\n" k words
          tuples us
          (Core.Plan.describe prepared.Sqlfront.Sql.planned.Core.Optimizer.plan);
        if smoke then begin
          if words > float_of_int (2 * pinned_words) then begin
            Printf.printf
              "perf-smoke: k=%d join allocates %.0f minor words, over twice \
               the recorded %d\n"
              k words pinned_words;
            failed := true
          end;
          if tuples <> pinned_tuples then begin
            Printf.printf "perf-smoke: k=%d join reads %d tuples, recorded %d\n"
              k tuples pinned_tuples;
            failed := true
          end
        end;
        Printf.sprintf
          "{\"bench\":\"pull\",\"n\":5000,\"domain\":200,\"k\":%d,\"runs\":%d,\
           \"cores\":%d,\"minor_words\":%.0f,\"tuples_read\":%d,\"us\":%.1f}"
          k runs (cores ()) words tuples us)
      pull_pinned
  in
  (rows, !failed)

(* The reply codec: one reply's rows rendered by [Protocol.render_rows]
   for three shapes, and the shard-push row decoded cell by cell with
   the HEX readers (what the coordinator does per pulled row). Per row:
   minor words and ns. perf-smoke fails when a shape allocates more than
   twice the words pinned here, as measured on the buffer writers and
   slice readers. *)
let render_pinned =
  [ ("leaderboard", 21); ("dashboard", 19); ("shard_push", 26); ("hex_decode", 30) ]

let render_rows ~smoke () =
  Bench_util.section "perf: reply codec";
  let g = Rkutil.Prng.create 25 in
  let nrows = 58 in
  let reps = if smoke then 300 else 5000 in
  let id () = Relalg.Value.Int (Rkutil.Prng.int g 64_000) in
  let score () = Rkutil.Prng.float g 1.0 in
  let shapes =
    [
      ( "leaderboard", `Text,
        fun () -> [| id (); Relalg.Value.Float (score ()) |] );
      ("dashboard", `Text, fun () -> [| id (); id () |]);
      ( "shard_push", `Hex,
        fun () ->
          [| id (); Relalg.Value.Int (Rkutil.Prng.int g 200);
             Relalg.Value.Float (score ()); id ();
             Relalg.Value.Int (Rkutil.Prng.int g 200);
             Relalg.Value.Float (score ()) |] );
    ]
  in
  let failed = ref false in
  let measure name per_rep =
    per_rep ();
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      per_rep ()
    done;
    let total = float_of_int (reps * nrows) in
    let words = (Gc.minor_words () -. w0) /. total
    and ns = (Unix.gettimeofday () -. t0) *. 1e9 /. total in
    let pinned = List.assoc name render_pinned in
    Bench_util.row "%-12s %6.1f minor words  %6.0f ns per row  (pinned %d)\n"
      name words ns pinned;
    if smoke && words > float_of_int (2 * pinned) then begin
      Printf.printf
        "perf-smoke: %s allocates %.1f minor words per row, over twice the \
         pinned %d\n"
        name words pinned;
      failed := true
    end;
    Printf.sprintf
      "{\"bench\":\"render\",\"shape\":\"%s\",\"rows\":%d,\"cores\":%d,\
       \"minor_words_per_row\":%.1f,\"ns_per_row\":%.0f}"
      name nrows (cores ()) words ns
  in
  let rendered =
    List.map
      (fun (name, codec, row) ->
        let rows = List.init nrows (fun _ -> row ()) in
        let scores = List.init nrows (fun _ -> score ()) in
        let lines = ref [] in
        let r =
          measure name (fun () ->
              lines := Server.Protocol.render_rows codec rows scores)
        in
        (r, !lines))
      shapes
  in
  let hex_lines = Array.of_list (snd (List.nth rendered 2)) in
  let decode line =
    let cells = Array.make 6 Relalg.Value.Null in
    let c = ref 0 and start = ref 0 in
    for i = 0 to String.length line - 1 do
      if String.unsafe_get line i = '\t' then begin
        cells.(!c) <- Storage.Persist.value_of_slice line !start (i - !start);
        incr c;
        start := i + 1
      end
    done;
    ignore
      (Sys.opaque_identity
         ( cells,
           Server.Protocol.score_of_slice `Hex line !start
             (String.length line - !start) ))
  in
  let decoded = measure "hex_decode" (fun () -> Array.iter decode hex_lines) in
  (List.map fst rendered @ [ decoded ], !failed)

(* Compact serve/lint rows: wall time of a fixed statement burst through
   the service (reusing the serve bench's load generator) and of a fixed
   planlint sweep — enough signal for a trajectory without the full
   bench runs. *)
let serve_row ~smoke () =
  Bench_util.section "perf: service statement burst";
  let catalog = Bench_util.two_table_catalog ~n:2000 ~domain:100 ~seed:42 () in
  let stmts = if smoke then 300 else 1500 in
  ignore (Serve_bench.run_serial catalog 30) (* warm pool + caches *);
  let serial_dt = Serve_bench.run_serial catalog stmts in
  let service_dt, _, _, errors =
    Serve_bench.run_service catalog ~workers:2 ~clients:2 stmts
  in
  Bench_util.row "serial %.3fs; service(2w/2c) %.3fs; errors %d\n" serial_dt
    service_dt errors;
  [
    Printf.sprintf
      "{\"bench\":\"serve\",\"statements\":%d,\"cores\":%d,\
       \"serial_s\":%.4f,\"service_s\":%.4f,\"errors\":%d}"
      stmts (cores ()) serial_dt service_dt errors;
  ]

let lint_row ~smoke () =
  Bench_util.section "perf: planlint sweep";
  let cases = if smoke then 40 else 200 in
  let dt, outcome =
    wall (fun () -> Check.Rankcheck.run Check.Rankcheck.lint ~seed:0 ~cases ())
  in
  Bench_util.row "%d cases, %d plans linted in %.3fs\n"
    outcome.Check.Rankcheck.o_cases outcome.Check.Rankcheck.o_plans dt;
  [
    Printf.sprintf
      "{\"bench\":\"lint\",\"cases\":%d,\"plans\":%d,\"wall_s\":%.4f,\
       \"failures\":%d}"
      outcome.Check.Rankcheck.o_cases outcome.Check.Rankcheck.o_plans dt
      (List.length outcome.Check.Rankcheck.o_failures);
  ]

let run ?(smoke = false) () =
  (* [let] fixes the order: the operands of [@] evaluate right to left. *)
  let drain = drain_rows ~smoke () in
  let pull, pull_failed = pull_rows ~smoke () in
  let render, render_failed = render_rows ~smoke () in
  let serve = serve_row ~smoke () in
  let lint = lint_row ~smoke () in
  let rows = drain @ pull @ render @ serve @ lint in
  Bench_util.section
    (if smoke then "perf rows (smoke: not appended)"
     else "perf rows appended to " ^ bench_file);
  emit ~append:(not smoke) rows;
  if pull_failed || render_failed then exit 1
