(* Depths of the adhoc three-way top-10 statement under HRJN*.

   The statement is the perfbench adhoc three-way chain at k = 10, which
   the optimizer plans as HRJN*[3] over three descending score indexes.
   It runs on the catalog that `rankopt analyze -t A:16000:8000 -t
   B:16000:8000 -t C:16000:8000` builds (seed 42, 256 pool frames), at two
   weight vectors: 3,1,2 and the skewed 72,3,85. Each run loads a fresh
   catalog, so every run reads the same pages from the same cold pool.

   Per case it reports the HRJN* node's per-input depths and result
   buffer high-water mark, the pages the statement read and the median
   execution time.

   The smoke mode runs each case once and exits 1 when a case's total
   depth or buffer exceeds the values the threshold polling rule reaches
   (round-robin polling reads 7 841 and 38 390 tuples into buffers of 313
   and 32 838). *)

let bench_file = "BENCH_RANKOPT.json"

type case = {
  weights : int * int * int;
  max_total_depth : int;
  max_buffer : int;
}

let cases =
  [
    { weights = (3, 1, 2); max_total_depth = 4_763; max_buffer = 50 };
    { weights = (72, 3, 85); max_total_depth = 13_780; max_buffer = 31 };
  ]

let sql (a, b, c) =
  Printf.sprintf
    "SELECT A.id, B.id, C.id FROM A, B, C WHERE A.key = B.key AND B.key = \
     C.key ORDER BY %d*A.score + %d*B.score + %d*C.score DESC LIMIT 10"
    a b c

let catalog () =
  let cat = Storage.Catalog.create ~pool_frames:256 () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (42 + (97 * i)))
           ~name ~n:16000 ~key_domain:8000 ()))
    [ "A"; "B"; "C" ];
  cat

type observed = { depths : int array; buffer : int; pages : int; ms : float }

let run_once case =
  let cat = catalog () in
  let planned =
    match
      Result.bind (Sqlfront.Sql.template_of_sql (sql case.weights)) (fun tpl ->
          Result.bind (Sqlfront.Sql.instantiate tpl ()) (Sqlfront.Sql.prepare_ast cat))
    with
    | Ok p -> p.Sqlfront.Sql.planned
    | Error e -> failwith ("nary bench: " ^ e)
  in
  let t0 = Unix.gettimeofday () in
  let result = Core.Optimizer.execute cat planned in
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  match result.Core.Executor.nary_nodes with
  | [ node ] ->
      let st = node.Core.Executor.nary_stats in
      {
        depths = Exec.Exec_stats.depths st;
        buffer = Exec.Exec_stats.buffer_max st;
        pages = result.Core.Executor.io.Storage.Io_stats.page_reads;
        ms;
      }
  | _ -> failwith "nary bench: expected one HRJN* node"

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let run ?(smoke = false) () =
  Bench_util.section "nary: adhoc three-way top-10 under HRJN*";
  let runs = if smoke then 1 else 5 in
  let failed = ref false in
  let rows =
    List.map
      (fun case ->
        let obs = List.init runs (fun _ -> run_once case) in
        let first = List.hd obs in
        let ms = median (List.map (fun o -> o.ms) obs) in
        let a, b, c = case.weights in
        let depths = Array.to_list (Array.map string_of_int first.depths) in
        let total = Array.fold_left ( + ) 0 first.depths in
        Bench_util.row
          "weights %d,%d,%d: depths %s (total %d), buffer %d, pages %d, \
           median %.2f ms\n"
          a b c (String.concat "/" depths) total first.buffer first.pages ms;
        if smoke && (total > case.max_total_depth || first.buffer > case.max_buffer)
        then begin
          Printf.printf
            "nary-smoke: weights %d,%d,%d read %d tuples into a buffer of %d, \
             over the limits %d and %d\n"
            a b c total first.buffer case.max_total_depth case.max_buffer;
          failed := true
        end;
        Printf.sprintf
          "{\"weights\":[%d,%d,%d],\"depths\":[%s],\"buffer\":%d,\"pages\":%d,\
           \"median_ms\":%.2f}"
          a b c (String.concat "," depths) first.buffer first.pages ms)
      cases
  in
  let row =
    Printf.sprintf
      "{\"bench\":\"nary\",\"n\":16000,\"domain\":8000,\"pool_frames\":256,\
       \"k\":10,\"runs\":%d,\"cores\":%d,\"cases\":[%s]}"
      runs
      (Domain.recommended_domain_count ())
      (String.concat "," rows)
  in
  print_endline row;
  if !failed then exit 1;
  if not smoke then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
    output_string oc row;
    output_char oc '\n';
    close_out oc;
    Printf.printf "(1 row appended to %s)\n" bench_file
  end
