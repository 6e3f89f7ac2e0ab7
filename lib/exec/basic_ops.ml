open Relalg

let filter ?stats pred (op : Operator.t) : Operator.t =
  let stats = match stats with Some s -> s | None -> Exec_stats.create 1 in
  let f = Expr.compile_bool op.schema pred in
  let rec next () =
    match op.next () with
    | None -> None
    | Some tu as r ->
        Exec_stats.bump_depth stats 0;
        if f tu then begin
          Exec_stats.bump_emitted stats;
          r
        end
        else next ()
  in
  {
    op with
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        op.open_ ());
    next;
  }

let project cols (op : Operator.t) : Operator.t =
  let idxs =
    List.map
      (fun (relation, name) -> Schema.index_of_exn op.schema ?relation name)
      cols
  in
  let schema = Schema.project op.schema idxs in
  Operator.map_schema schema (fun tu -> Tuple.project tu idxs) op

let project_exprs targets (op : Operator.t) : Operator.t =
  let schema = Schema.of_columns (List.map snd targets) in
  let fns = List.map (fun (e, _) -> Expr.compile op.schema e) targets in
  Operator.map_schema schema
    (fun tu -> Array.of_list (List.map (fun f -> f tu) fns))
    op

let limit ?stats n (op : Operator.t) : Operator.t =
  let stats = match stats with Some s -> s | None -> Exec_stats.create 1 in
  let seen = ref 0 in
  {
    op with
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        seen := 0;
        op.open_ ());
    next =
      (fun () ->
        if !seen >= n then None
        else
          match op.next () with
          | Some _ as r ->
              Exec_stats.bump_depth stats 0;
              Exec_stats.bump_emitted stats;
              incr seen;
              r
          | None -> None);
  }

let scored_limit n (s : Operator.scored) : Operator.scored =
  let seen = ref 0 in
  {
    s with
    s_open =
      (fun () ->
        seen := 0;
        s.s_open ());
    s_next =
      (fun () ->
        if !seen >= n then None
        else
          match s.s_next () with
          | Some _ as r ->
              incr seen;
              r
          | None -> None);
  }
