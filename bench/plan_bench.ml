(* Planning cost of the perfbench adhoc statements.

   Every adhoc statement is a new plan-cache template, so each one pays
   bind plus a full optimize. This bench prepares the adhoc two- and
   three-way chain shapes (the perfbench SQL, integer weights) over 21
   weight vectors at k in {10, 50, 200, 2000}, on the adhoc data: tables
   A, B, C of 16 000 rows over a key domain of 8 000, 256 pool frames.

   Per shape it reports the median wall time of [Sql.prepare_ast], the
   minor words one prepare allocates (deterministic for a given build),
   and the memo's generated and retained plan counts summed over the
   statements. A digest of every chosen plan's rendering pins plan
   identity: a change that keeps the digest chose the same plans. A
   second digest, of the chosen plans' estimates and rank-join depths,
   pins costing: a change that keeps it costed them bit for bit alike.

   The smoke mode runs 3 weight vectors and exits 1 when a three-way
   prepare allocates more than [words_budget] (twice the words measured
   when the memo began comparing precomputed order keys and costs), or
   when either digest or the memo counts differ from the pinned ones: the
   same statements must choose the same plans from the same memo. *)

let bench_file = "BENCH_RANKOPT.json"

let ks = [ 10; 50; 200; 2000 ]

(* Minor words per three-way prepare in the smoke run, measured with the
   precomputed-key memo (before it, 1 921 080); the gate allows twice
   this. *)
let words_3way = 328_405

let words_budget = 2 * words_3way

(* The smoke run's plan digest and (arity, memo generated, memo retained)
   per shape. A planner change that alters them on purpose records the new
   values here. *)
let smoke_digest = "77d8199f354dcf5ce4707927167726b1"

(* The smoke run's digest of chosen-plan estimates and rank-join depths
   ([costed_line]): a refactor of the cost model or of depth propagation
   keeps it. *)
let smoke_cost_digest = "fc08a4fdb2929a46e1ba2647e8384cd1"

let smoke_memo = [ (2, 1356, 192); (3, 7920, 678) ]

let sql weights k =
  match weights with
  | [ a; b ] ->
      Printf.sprintf
        "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY %d*A.score \
         + %d*B.score DESC LIMIT %d"
        a b k
  | [ a; b; c ] ->
      Printf.sprintf
        "SELECT A.id, B.id, C.id FROM A, B, C WHERE A.key = B.key AND B.key = \
         C.key ORDER BY %d*A.score + %d*B.score + %d*C.score DESC LIMIT %d"
        a b c k
  | _ -> invalid_arg "Plan_bench.sql"

(* [count] distinct integer weight vectors of [arity] in 1..99. *)
let weight_vectors ~arity ~count =
  let g = Rkutil.Prng.create (4099 + arity) in
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      let w = List.init arity (fun _ -> 1 + Rkutil.Prng.int g 99) in
      if List.mem w acc then go acc n else go (w :: acc) (n - 1)
  in
  go [] count

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let prepare catalog text =
  let ( let* ) = Result.bind in
  match
    let* tpl = Sqlfront.Sql.template_of_sql text in
    let* ast = Sqlfront.Sql.instantiate tpl () in
    Ok ast
  with
  | Error e -> failwith ("plan bench: " ^ e)
  | Ok ast -> (
      fun () ->
        match Sqlfront.Sql.prepare_ast catalog ast with
        | Ok p -> p
        | Error e -> failwith ("plan bench: " ^ e))

type shape = {
  arity : int;
  statements : int;
  median_ms : float;
  words : float;  (* minor words per prepare, mean over the statements *)
  generated : int;
  retained : int;
  rendered : string list;  (* each chosen plan, in statement order *)
  costed : string list;  (* each chosen plan's estimate and depths *)
}

(* The chosen plan's root estimate (as the memo stored it and as
   [Cost_model.estimate] recomputes it) and, for every rank-join node, its
   propagated requirement and per-input depths, all rendered exactly
   ([%h]): the same line means bit-identical costing and depths. *)
let costed_line (planned : Core.Optimizer.planned) =
  let env = planned.Core.Optimizer.env and plan = planned.Core.Optimizer.plan in
  let k = Option.value ~default:1 planned.Core.Optimizer.query.Core.Logical.k in
  let est (e : Core.Cost_model.estimate) =
    Printf.sprintf "%h %h %h" e.Core.Cost_model.rows e.Core.Cost_model.total_cost
      (e.Core.Cost_model.cost_at (float_of_int k))
  in
  let rec nodes acc (a : Core.Propagate.annotation) =
    let acc =
      match a.Core.Propagate.depths with
      | Some ds ->
          Printf.sprintf "%h:%s" a.Core.Propagate.required
            (String.concat ","
               (List.map (Printf.sprintf "%h") (Array.to_list ds)))
          :: acc
      | None -> acc
    in
    List.fold_left nodes acc a.Core.Propagate.children
  in
  String.concat " | "
    (est planned.Core.Optimizer.est
    :: est (Core.Cost_model.estimate env plan)
    :: List.rev (nodes [] (Core.Propagate.run env ~k plan)))

let run_shape catalog ~arity ~vectors ~runs =
  let stmts =
    List.concat_map
      (fun w -> List.map (fun k -> prepare catalog (sql w k)) ks)
      (weight_vectors ~arity ~count:vectors)
  in
  let times = ref [] and words = ref 0.0 in
  let generated = ref 0 and retained = ref 0 in
  let rendered = ref [] and costed = ref [] in
  List.iter
    (fun go ->
      for r = 1 to runs do
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let p = go () in
        let dt = Unix.gettimeofday () -. t0 in
        let w1 = Gc.minor_words () in
        times := dt :: !times;
        if r = 1 then begin
          let planned = p.Sqlfront.Sql.planned in
          let stats = planned.Core.Optimizer.stats in
          words := !words +. (w1 -. w0);
          generated := !generated + stats.Core.Enumerator.generated;
          retained := !retained + stats.Core.Enumerator.retained;
          rendered :=
            Format.asprintf "%a" Core.Plan.pp planned.Core.Optimizer.plan
            :: !rendered;
          costed := costed_line planned :: !costed
        end
      done)
    stmts;
  let n = List.length stmts in
  {
    arity;
    statements = n;
    median_ms = 1000.0 *. median !times;
    words = !words /. float_of_int n;
    generated = !generated;
    retained = !retained;
    rendered = List.rev !rendered;
    costed = List.rev !costed;
  }

let run ?(smoke = false) () =
  Bench_util.section "plan: adhoc statement prepare (bind + optimize)";
  let vectors = if smoke then 3 else 21 and runs = if smoke then 1 else 5 in
  let catalog =
    Bench_util.three_table_catalog ~n:16000 ~pool_frames:256 ~domain:8000
      ~seed:101 ()
  in
  let shapes =
    List.map
      (fun arity -> run_shape catalog ~arity ~vectors ~runs)
      [ 2; 3 ]
  in
  let digest_of field =
    Digest.to_hex
      (Digest.string (String.concat "\n" (List.concat_map field shapes)))
  in
  let digest = digest_of (fun s -> s.rendered) in
  let cost_digest = digest_of (fun s -> s.costed) in
  List.iter
    (fun s ->
      Bench_util.row
        "%d-way: %d statements, median %.3f ms, %.0f minor words per \
         prepare, memo generated %d retained %d\n"
        s.arity s.statements s.median_ms s.words s.generated s.retained)
    shapes;
  let shape_json s =
    Printf.sprintf
      "{\"arity\":%d,\"statements\":%d,\"median_ms\":%.3f,\"minor_words\":%.0f,\
       \"memo_generated\":%d,\"memo_retained\":%d}"
      s.arity s.statements s.median_ms s.words s.generated s.retained
  in
  let row =
    Printf.sprintf
      "{\"bench\":\"plan\",\"n\":16000,\"domain\":8000,\"pool_frames\":256,\
       \"vectors\":%d,\"ks\":[%s],\"runs\":%d,\"cores\":%d,\"shapes\":[%s],\
       \"digest\":\"%s\",\"cost_digest\":\"%s\"}"
      vectors
      (String.concat "," (List.map string_of_int ks))
      runs
      (Domain.recommended_domain_count ())
      (String.concat "," (List.map shape_json shapes))
      digest cost_digest
  in
  print_endline row;
  if smoke then begin
    let three = List.find (fun s -> s.arity = 3) shapes in
    let failed = ref false in
    if three.words > float_of_int words_budget then begin
      Printf.printf
        "plan-smoke: a 3-way prepare allocates %.0f minor words, over the \
         budget of %d\n"
        three.words words_budget;
      failed := true
    end;
    if digest <> smoke_digest then begin
      Printf.printf "plan-smoke: plan digest %s, pinned %s\n" digest
        smoke_digest;
      failed := true
    end;
    if cost_digest <> smoke_cost_digest then begin
      Printf.printf "plan-smoke: cost/depth digest %s, pinned %s\n"
        cost_digest smoke_cost_digest;
      failed := true
    end;
    List.iter
      (fun (arity, generated, retained) ->
        let s = List.find (fun s -> s.arity = arity) shapes in
        if s.generated <> generated || s.retained <> retained then begin
          Printf.printf
            "plan-smoke: %d-way memo generated %d retained %d, pinned %d / %d\n"
            arity s.generated s.retained generated retained;
          failed := true
        end)
      smoke_memo;
    if !failed then exit 1
  end
  else begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
    output_string oc row;
    output_char oc '\n';
    close_out oc;
    Printf.printf "(1 row appended to %s)\n" bench_file
  end
