(* Leaderboard workload: hot by-rank pages and rank-of-value probes over a
   single scored table, interleaved with score updates.

   Two questions the order-statistic index exists to answer:

   - scaling: a "page i..j of the leaderboard" window served by counted
     B+-tree descent is O(log n + page) while the drain-sort-slice
     fallback re-sorts the whole table per request — per-window latency
     for the descent should stay near-flat as n grows while the fallback
     grows superlinearly;
   - the mixed serving loop: window queries through the full SQL path
     (plan cache included), RANK-style probes, and UPDATEs that bump the
     table's stats epoch and force re-optimization of cached windows.

   Appends one JSON row to BENCH_RANKOPT.json recording both the indexed
   and sorted per-window timings at every n, and the heap page requests of
   each mix UPDATE (smoke mode prints without appending, so `make ci` stays
   clean-tree). Exits 1 when a point UPDATE requests more than 2 heap
   pages: the page its scan reads and the same page again for the write. *)

let bench_file = "BENCH_RANKOPT.json"

let wall f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

let ok_or what = function
  | Ok r -> r
  | Error e -> failwith (what ^ ": " ^ Server.Service.error_message e)

let page = 20

let window_sql lo hi =
  Printf.sprintf
    "SELECT L.id, L.score FROM L WHERE rank() BETWEEN %d AND %d ORDER BY \
     L.score DESC"
    lo hi

let build_catalog ~n ~seed =
  let cat = Storage.Catalog.create ~pool_frames:256 () in
  ignore
    (Workload.Generator.load_scored_table cat
       (Rkutil.Prng.create seed)
       ~name:"L" ~n ~key_domain:(max 1 (n / 10)) ());
  cat

let score = Relalg.Expr.col ~relation:"L" "score"

(* Average per-window seconds for both physical variants over the same
   random windows, executed directly so the comparison is pure operator
   cost (no parse/bind noise). Returns (indexed_s, sorted_s). *)
let measure_windows cat ~n ~windows prng =
  let run plan =
    (Core.Executor.run cat plan : Core.Executor.run_result).Core.Executor.rows
  in
  let indexed = ref 0.0 and sorted = ref 0.0 in
  for _ = 1 to windows do
    let lo = 1 + Rkutil.Prng.int prng (max 1 (n - page)) in
    let hi = lo + page - 1 in
    let by_rank =
      Core.Plan.Rank_index_scan
        { table = "L"; index = Some "L_score"; score; lo; hi; dense = false }
    in
    let by_sort =
      Core.Plan.Rank_index_scan
        { table = "L"; index = None; score; lo; hi; dense = false }
    in
    let ti, rows_i = wall (fun () -> run by_rank) in
    let ts, rows_s = wall (fun () -> run by_sort) in
    if List.length rows_i <> List.length rows_s then
      failwith "leaderboard bench: variants disagree on window cardinality";
    indexed := !indexed +. ti;
    sorted := !sorted +. ts
  done;
  (!indexed /. float_of_int windows, !sorted /. float_of_int windows)

(* Mixed serving loop through a live service: 60% window pages, 20% rank
   probes, 20% score updates. Returns (ops/s, reoptimized count, heap page
   requests of each UPDATE). A request is a pool access (page_reads +
   pool_hits): the pages the UPDATE's predicate scan reads, plus one for
   the in-place write of the row's page. Statements run one at a time, so
   the counter deltas around an UPDATE are its own. *)
let serving_mix ~n ~ops prng cat =
  let config = { Server.Service.default_config with workers = 2 } in
  let svc = Server.Service.create ~config cat in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let sess = Server.Service.open_session svc in
  let reopt = ref 0 in
  let update_pages = ref [] in
  let io = Storage.Catalog.io cat in
  let requests () =
    let s = Storage.Io_stats.snapshot io in
    s.Storage.Io_stats.page_reads + s.Storage.Io_stats.pool_hits
  in
  let dt, () =
    wall (fun () ->
        for _ = 1 to ops do
          match Rkutil.Prng.int prng 5 with
          | 0 | 1 | 2 ->
              (* A hot page near the top — the cacheable fast path. *)
              let lo = 1 + Rkutil.Prng.int prng 5 in
              let reply =
                ok_or "window"
                  (Server.Service.query sess (window_sql lo (lo + page - 1)))
              in
              if reply.Server.Service.reoptimized then incr reopt
          | 3 ->
              ignore
                (ok_or "probe"
                   (Server.Service.rank_probe sess ~table:"L" ~column:"score"
                      (Rkutil.Prng.uniform prng))
                  : int option * int)
          | _ ->
              let id = Rkutil.Prng.int prng n in
              let v = Rkutil.Prng.uniform prng in
              let before = requests () in
              ignore
                (ok_or "update"
                   (Server.Service.query sess
                      (Printf.sprintf "UPDATE L SET score = %f WHERE id = %d"
                         v id))
                  : Server.Service.reply);
              update_pages := (requests () - before) :: !update_pages
        done)
  in
  (float_of_int ops /. dt, !reopt, !update_pages)

let run ?(smoke = false) () =
  Bench_util.section
    "leaderboard: by-rank index descent vs drain-sort-slice";
  let sizes = if smoke then [ 1000; 4000 ] else [ 4000; 16000; 64000 ] in
  let windows = if smoke then 10 else 40 in
  let prng = Rkutil.Prng.create 11 in
  (* Sanity: the optimizer's own arbitration must pick the counted descent
     on an indexed table. *)
  let chosen =
    let cat = build_catalog ~n:2000 ~seed:3 in
    match Sqlfront.Sql.query cat (window_sql 5 24) with
    | Ok a -> Core.Plan.describe a.Sqlfront.Sql.planned.Core.Optimizer.plan
    | Error e -> failwith ("leaderboard bench plan probe: " ^ e)
  in
  Bench_util.row "optimizer chooses: %s\n" chosen;
  Bench_util.row "%-10s %16s %16s %10s\n" "n" "indexed_ms" "sorted_ms"
    "speedup";
  let per_size =
    List.map
      (fun n ->
        let cat = build_catalog ~n ~seed:(41 + n) in
        (* Warm the pool so both variants measure compute, not cold I/O. *)
        ignore (Core.Executor.run cat (Core.Plan.Table_scan { table = "L" }));
        let indexed_s, sorted_s = measure_windows cat ~n ~windows prng in
        Bench_util.row "%-10d %15.4f %15.4f %9.1fx\n" n (1000.0 *. indexed_s)
          (1000.0 *. sorted_s)
          (sorted_s /. Float.max 1e-9 indexed_s);
        (n, indexed_s, sorted_s))
      sizes
  in
  (* Sub-linearity check: as n grows by g, the sorted side should scale
     at least with g while the descent stays near-flat. *)
  (let n0, i0, s0 = List.hd per_size in
   let n1, i1, s1 = List.nth per_size (List.length per_size - 1) in
   let growth r a b = b /. Float.max 1e-9 a |> fun x -> (r, x) in
   let _, gi = growth "indexed" i0 i1 and _, gs = growth "sorted" s0 s1 in
   Bench_util.row
     "n grew %.0fx: indexed per-window cost grew %.1fx, sorted grew %.1fx%s\n"
     (float_of_int n1 /. float_of_int n0)
     gi gs
     (if gi < gs then "" else "  [INDEXED NOT SUB-LINEAR]"));
  let mix_n = List.hd (List.rev sizes) in
  let mix_ops = if smoke then 40 else 400 in
  let mix_cat = build_catalog ~n:mix_n ~seed:97 in
  let ops_s, reopt, update_pages = serving_mix ~n:mix_n ~ops:mix_ops prng mix_cat in
  let mean_update_pages =
    float_of_int (List.fold_left ( + ) 0 update_pages)
    /. float_of_int (max 1 (List.length update_pages))
  in
  Bench_util.row
    "serving mix (n=%d, %d ops: 60%% pages / 20%% probes / 20%% updates): \
     %.0f ops/s, %d reoptimizations after epoch bumps, %.1f heap page \
     requests per UPDATE\n"
    mix_n mix_ops ops_s reopt mean_update_pages;
  let row =
    let per_size_json =
      String.concat ","
        (List.map
           (fun (n, i, s) ->
             Printf.sprintf
               "{\"n\":%d,\"indexed_ms\":%.4f,\"sorted_ms\":%.4f}" n
               (1000.0 *. i) (1000.0 *. s))
           per_size)
    in
    Printf.sprintf
      "{\"bench\":\"leaderboard\",\"page\":%d,\"windows\":%d,\
       \"sizes\":[%s],\"mix_n\":%d,\"mix_ops\":%d,\"mix_ops_per_s\":%.1f,\
       \"mix_reoptimized\":%d,\"mix_update_pages\":%.1f,\"plan\":\"%s\"}"
      page windows per_size_json mix_n mix_ops ops_s reopt mean_update_pages
      chosen
  in
  print_endline row;
  if not smoke then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
    output_string oc row;
    output_char oc '\n';
    close_out oc;
    Printf.printf "(1 row appended to %s)\n" bench_file
  end;
  (* A point UPDATE by id reads the one page holding the row (per-page
     zones rule out the rest) and requests it once more for the in-place
     write. *)
  if List.exists (fun p -> p > 2) update_pages then begin
    Printf.eprintf
      "leaderboard bench: a point UPDATE requested more than 2 heap pages \
       (max %d): its predicate scan read more than the row's page\n"
      (List.fold_left max 0 update_pages);
    exit 1
  end
