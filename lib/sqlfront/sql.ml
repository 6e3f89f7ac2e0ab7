open Relalg

type answer = {
  columns : string list;
  rows : Tuple.t list;
  scores : float list;
  planned : Core.Optimizer.planned;
}

let ( let* ) = Result.bind

type prepared = {
  bound : Binder.bound;
  planned : Core.Optimizer.planned;
}

type template = {
  tpl_text : string;
  tpl_ast : Ast.query;
  tpl_inline_k : int option;
}

let template_of_ast (ast : Ast.query) =
  let has_limit = ast.Ast.limit_param || ast.Ast.limit <> None in
  let tpl_ast =
    if has_limit then { ast with Ast.limit = None; limit_param = true }
    else ast
  in
  {
    tpl_text = Format.asprintf "%a" Ast.pp_query tpl_ast;
    tpl_ast;
    tpl_inline_k = (if ast.Ast.limit_param then None else ast.Ast.limit);
  }

let template_of_sql text =
  let* ast = Parser.parse_result text in
  Ok (template_of_ast ast)

let instantiate tpl ?k () =
  if not tpl.tpl_ast.Ast.limit_param then
    match k with
    | None -> Ok tpl.tpl_ast
    | Some _ -> Error "bind error: query has no LIMIT to parameterize"
  else
    match (match k with Some _ -> k | None -> tpl.tpl_inline_k) with
    | Some k when k >= 0 ->
        Ok { tpl.tpl_ast with Ast.limit = Some k; limit_param = false }
    | Some k -> Error (Printf.sprintf "bind error: negative k %d" k)
    | None -> Error "bind error: LIMIT ? is unbound: supply k"

let prepare_ast ?config catalog ast =
  let* bound = Binder.bind_result catalog ast in
  match Core.Optimizer.optimize ?config catalog bound.Binder.logical with
  | planned -> Ok { bound; planned }
  | exception Failure msg -> Error ("plan error: " ^ msg)

let rebind_k p k =
  {
    planned = Core.Optimizer.rebind_k p.planned k;
    bound =
      {
        p.bound with
        Binder.post_limit =
          Option.map (fun _ -> k) p.bound.Binder.post_limit;
      };
  }

let plan_of ?config catalog text =
  let* ast = Parser.parse_result text in
  let* p = prepare_ast ?config catalog ast in
  Ok (p.bound, p.planned)

(* The reply's column names and, under an explicit SELECT list, one cell
   function per target over rows of [schema]. A cell function takes the
   row's 0-based absolute rank (what rank() reports, plus one) and the
   tuple. *)
let projection schema (bound : Binder.bound) =
  match bound.Binder.projection with
  | None -> (List.map Schema.column_name (Schema.columns schema), None)
  | Some targets ->
      ( List.map snd targets,
        Some
          (List.map
             (fun (oc, _) ->
               match oc with
               | Binder.Col e ->
                   let f = Expr.compile schema e in
                   fun _i tu -> f tu
               | Binder.Rank -> fun i _tu -> Value.Int (i + 1))
             targets) )

(* Post-executor answer assembly: projection (including the absolute
   rank() numbering, dense on dense windows) and the per-row scores. The
   shard coordinator calls this on gathered rows so a scattered execution
   is cell-identical to a single-node one; [schema] is the executed
   plan's output schema, [result_rows] its (tuple, score) stream after
   any post-sort/limit. Aggregation answers never come through here. *)
let project_rows ({ bound; planned } : prepared) schema result_rows =
  let rank_range =
    planned.Core.Optimizer.query.Core.Logical.rank_range
  in
  let columns, fns = projection schema bound in
  let rows =
    match fns with
    | None -> List.map fst result_rows
    | Some fns ->
        (* rank() positions are absolute: a window starting at rank [lo]
           numbers its first row [lo], not 1. On a dense window the number
           advances only when the score changes, so tie blocks share it. *)
        let rank_base =
          match rank_range with Some (lo, _) -> lo - 1 | None -> 0
        in
        let rank_at =
          if planned.Core.Optimizer.query.Core.Logical.rank_dense then (
            let scores = Array.of_list (List.map snd result_rows) in
            let nums = Array.make (max 1 (Array.length scores)) rank_base in
            Array.iteri
              (fun i s ->
                if i > 0 then
                  nums.(i) <-
                    (if Float.compare scores.(i - 1) s = 0 then nums.(i - 1)
                     else nums.(i - 1) + 1))
              scores;
            fun i -> nums.(i))
          else fun i -> rank_base + i
        in
        List.mapi
          (fun i (tu, _) ->
            Array.of_list (List.map (fun f -> f (rank_at i) tu) fns))
          result_rows
  in
  {
    columns;
    rows;
    scores =
      (if
         Core.Logical.is_ranking planned.Core.Optimizer.query
         || Option.is_some bound.Binder.post_sort
         || Option.is_some rank_range
       then List.map snd result_rows
       else []);
    planned;
  }

let run_prepared ?interrupt catalog { bound; planned } =
  let result = Core.Optimizer.execute ?interrupt catalog planned in
  match bound.Binder.aggregation with
  | Some agg ->
      let schema = result.Core.Executor.schema in
      let input =
        Exec.Operator.of_list schema (List.map fst result.Core.Executor.rows)
      in
      let out =
        Exec.Aggregate.hash_group_by ~group_by:agg.Binder.agg_group_by
          ~aggregates:agg.Binder.agg_specs input
      in
      let rows = Exec.Operator.to_list out in
      let rows =
        match bound.Binder.post_limit with
        | None -> rows
        | Some k -> List.filteri (fun i _ -> i < k) rows
      in
      Ok
        {
          columns =
            List.map Schema.column_name (Schema.columns out.Exec.Operator.schema);
          rows;
          scores = [];
          planned;
        }
  | None ->
  let schema = result.Core.Executor.schema in
  let sorted_rows =
    match bound.Binder.post_sort with
    | None -> result.Core.Executor.rows
    | Some (e, dir) ->
        let f = Expr.compile_float schema e in
        let keyed = List.map (fun (tu, _) -> (tu, f tu)) result.Core.Executor.rows in
        List.stable_sort
          (fun (_, a) (_, b) ->
            match dir with `Asc -> Float.compare a b | `Desc -> Float.compare b a)
          keyed
  in
  let result_rows =
    match bound.Binder.post_limit with
    | None -> sorted_rows
    | Some k -> List.filteri (fun i _ -> i < k) sorted_rows
  in
  Ok (project_rows { bound; planned } schema result_rows)

(* -------------------------------------------------------------------- *)
(* Cursors: keep an enumerable statement's plan open between fetches.

   A statement qualifies when its plan carries the Enumerate property
   (Top-k over a resumable stream) and nothing downstream of the executor
   re-orders or truncates rows: no aggregation, no post-sort. The
   projection (including the running rank() index) is applied per fetch
   with an absolute row offset so EXECUTE + repeated FETCH NEXT produce
   exactly the rows a one-shot execution at a larger k would. *)

type cursor = {
  cur_prepared : prepared;
  cur_exec : Core.Executor.cursor;
  cur_columns : string list;
  cur_project : (int -> Tuple.t -> Value.t) list option;
  mutable cur_pos : int;  (* absolute rank of the next row, 0-based *)
}

let cursor_eligible { bound; planned } =
  planned.Core.Optimizer.enumerable
  && Option.is_none bound.Binder.aggregation
  && Option.is_none bound.Binder.post_sort

let open_cursor ?interrupt catalog ({ bound; planned } as p) =
  let cur_exec =
    Core.Executor.open_cursor ?interrupt catalog
      planned.Core.Optimizer.plan
  in
  let schema = Core.Executor.cursor_schema cur_exec in
  let cur_columns, cur_project = projection schema bound in
  { cur_prepared = p; cur_exec; cur_columns; cur_project; cur_pos = 0 }

let cursor_columns cur = cur.cur_columns
let cursor_prepared cur = cur.cur_prepared
let cursor_position cur = cur.cur_pos

let cursor_fetch cur n =
  let raw = Core.Executor.cursor_fetch cur.cur_exec n in
  let rows =
    match cur.cur_project with
    | None -> List.map fst raw
    | Some fns ->
        List.mapi
          (fun i (tu, _) ->
            Array.of_list (List.map (fun f -> f (cur.cur_pos + i) tu) fns))
          raw
  in
  cur.cur_pos <- cur.cur_pos + List.length raw;
  (rows, List.map snd raw)

let cursor_close cur = Core.Executor.cursor_close cur.cur_exec

let query ?config catalog text =
  let* bound, planned = plan_of ?config catalog text in
  run_prepared catalog { bound; planned }

type exec_result =
  | Rows of answer
  | Affected of int

let empty_schema = Schema.of_columns []

(* Lower a constant Ast expression (no column references allowed). *)
let rec constant_ast_expr = function
  | Ast.Number f -> Expr.cfloat f
  | Ast.String s -> Expr.Const (Value.Str s)
  | Ast.Column _ -> failwith "INSERT values must be constants"
  | Ast.Unary_minus e -> Expr.Neg (constant_ast_expr e)
  | Ast.Binop (op, a, b) -> (
      let ea = constant_ast_expr a and eb = constant_ast_expr b in
      match op with
      | Ast.Add -> Expr.Add (ea, eb)
      | Ast.Sub -> Expr.Sub (ea, eb)
      | Ast.Mul -> Expr.Mul (ea, eb)
      | Ast.Div -> Expr.Div (ea, eb))

(* Evaluate a constant expression of an INSERT row and coerce it to the
   target column's type. *)
let constant_value dtype e =
  let v = Expr.eval empty_schema (constant_ast_expr e) [||] in
  match dtype, v with
  | Value.Tint, Value.Float f when Float.is_integer f -> Value.Int (int_of_float f)
  | Value.Tfloat, Value.Int i -> Value.Float (float_of_int i)
  | _, v -> v

let run_insert catalog table rows =
  match Storage.Catalog.find_table catalog table with
  | None -> Error (Printf.sprintf "unknown table %s" table)
  | Some info -> (
      let cols = Schema.columns info.Storage.Catalog.tb_schema in
      let arity = List.length cols in
      match
        List.map
          (fun row ->
            if List.length row <> arity then
              failwith
                (Printf.sprintf "expected %d values, got %d" arity (List.length row));
            Array.of_list
              (List.map2
                 (fun (c : Schema.column) e -> constant_value c.Schema.dtype e)
                 cols row))
          rows
      with
      | tuples -> (
          match Storage.Catalog.insert_into catalog ~table tuples with
          | () ->
              ignore (Storage.Catalog.refresh_stats catalog table);
              Ok (Affected (List.length tuples))
          | exception Invalid_argument msg -> Error ("insert error: " ^ msg))
      | exception Failure msg -> Error ("insert error: " ^ msg)
      | exception Invalid_argument msg -> Error ("insert error: " ^ msg))

(* Resolve a DELETE/UPDATE predicate over the single target table. *)
let single_table_predicate catalog table where =
  let ast_query =
    {
      Ast.select = [ Ast.Star ];
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
  match Binder.bind_result catalog ast_query with
  | Error e -> Error e
  | Ok bound ->
      let rel = Core.Logical.find_relation bound.Binder.logical table in
      Ok
        (Option.value ~default:(Expr.Const (Value.Bool true))
           rel.Core.Logical.filter)

let run_delete catalog table where =
  match Storage.Catalog.find_table catalog table with
  | None -> Error (Printf.sprintf "unknown table %s" table)
  | Some _ -> (
      match single_table_predicate catalog table where with
      | Error e -> Error e
      | Ok pred -> (
          match Storage.Catalog.delete_from catalog ~table pred with
          | n ->
              ignore (Storage.Catalog.refresh_stats catalog table);
              Ok (Affected n)
          | exception Invalid_argument msg -> Error ("delete error: " ^ msg)))

let run_update catalog table assignments where =
  match Storage.Catalog.find_table catalog table with
  | None -> Error (Printf.sprintf "unknown table %s" table)
  | Some info -> (
      match single_table_predicate catalog table where with
      | Error e -> Error e
      | Ok pred -> (
          let schema = info.Storage.Catalog.tb_schema in
          match
            List.map
              (fun (column, ast_e) ->
                let e = Binder.bind_single_table_expr catalog table ast_e in
                let dtype =
                  match Schema.index_of schema ~relation:table column with
                  | Some i -> (Schema.nth schema i).Schema.dtype
                  | None -> failwith ("unknown column " ^ column)
                in
                let f = Expr.compile schema e in
                ( column,
                  fun tu ->
                    match dtype, f tu with
                    | Value.Tint, Value.Float x when Float.is_integer x ->
                        Value.Int (int_of_float x)
                    | Value.Tfloat, Value.Int i -> Value.Float (float_of_int i)
                    | _, v -> v ))
              assignments
          with
          | set -> (
              match Storage.Catalog.update_where catalog ~table pred ~set with
              | n ->
                  ignore (Storage.Catalog.refresh_stats catalog table);
                  Ok (Affected n)
              | exception Invalid_argument msg -> Error ("update error: " ^ msg))
          | exception Failure msg -> Error ("update error: " ^ msg)
          | exception Binder.Bind_error msg -> Error ("update error: " ^ msg)))

let execute ?config catalog text =
  let* stmt = Parser.parse_statement_result text in
  match stmt with
  | Ast.Select _ -> (
      match query ?config catalog text with
      | Ok ans -> Ok (Rows ans)
      | Error e -> Error e)
  | Ast.Insert { table; values } -> run_insert catalog table values
  | Ast.Delete { table; where } -> run_delete catalog table where
  | Ast.Update { table; assignments; where } ->
      run_update catalog table assignments where

let explain ?config catalog text =
  let* _, planned = plan_of ?config catalog text in
  Ok (Core.Optimizer.explain planned)

let analyze ?config catalog text =
  let* _, planned = plan_of ?config catalog text in
  match Core.Optimizer.explain_analyze catalog planned with
  | report, _result -> Ok report
  | exception Failure msg -> Error ("analyze error: " ^ msg)
