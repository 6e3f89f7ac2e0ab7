open Relalg
open Storage

let stats_or stats = match stats with Some s -> s | None -> Exec_stats.create 0

let heap ?stats (info : Catalog.table_info) : Operator.t =
  let stats = stats_or stats in
  let cursor = ref (fun () -> None) in
  {
    schema = info.tb_schema;
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        cursor := Heap_file.scan info.tb_heap);
    next =
      (fun () ->
        match !cursor () with
        | Some _ as r ->
            Exec_stats.bump_emitted stats;
            r
        | None -> None);
    close = (fun () -> cursor := fun () -> None);
  }

let index_with ?stats ~direction catalog (ix : Catalog.index_info) : Operator.t =
  let stats = stats_or stats in
  let info = Catalog.table catalog ix.Catalog.ix_table in
  let cursor = ref (fun () -> None) in
  let start () =
    match direction with
    | `Asc -> Btree.scan_asc ix.ix_btree
    | `Desc -> Btree.scan_desc ix.ix_btree
  in
  {
    schema = info.tb_schema;
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        cursor := start ());
    next =
      (fun () ->
        match !cursor () with
        | Some payload ->
            Exec_stats.bump_emitted stats;
            Some (Catalog.index_payload_to_tuple info ix payload)
        | None -> None);
    close = (fun () -> cursor := fun () -> None);
  }

let index_asc ?stats catalog ix = index_with ?stats ~direction:`Asc catalog ix

let index_desc ?stats catalog ix = index_with ?stats ~direction:`Desc catalog ix

let index_desc_scored ?stats catalog (ix : Catalog.index_info) : Operator.scored =
  let info = Catalog.table catalog ix.Catalog.ix_table in
  let op = index_desc ?stats catalog ix in
  let score = Expr.compile_float info.tb_schema ix.ix_key in
  Operator.with_score score op

let index_probe catalog ix key = Catalog.index_lookup catalog ix key

(* -- By-rank windows (leaderboard access paths) ------------------------- *)

let rank_window ?stats ?(dense = false) catalog (ix : Catalog.index_info) ~lo
    ~hi ~tie_cmp : Operator.t =
  let stats = stats_or stats in
  let info = Catalog.table catalog ix.Catalog.ix_table in
  let window = ref [] in
  {
    schema = info.tb_schema;
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        let select =
          if dense then Rank_index.select_dense_rank else Rank_index.select_rank
        in
        window :=
          select ix.ix_btree ~lo ~hi
            ~resolve:(Catalog.index_payload_to_tuple info ix)
            ~tie_cmp);
    next =
      (fun () ->
        match !window with
        | (tu, _) :: rest ->
            window := rest;
            Exec_stats.bump_emitted stats;
            Some tu
        | [] -> None);
    close = (fun () -> window := []);
  }

let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

let rec drop n l =
  match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l

(* Index-less fallback: drain the heap, sort by score descending with the
   canonical tie order, slice the requested rank window. Blocking, but it
   computes the same ranks (NaN scores dropped) as the counted descent. *)
let rank_window_sort ?stats ?(dense = false) (info : Catalog.table_info) ~score
    ~lo ~hi ~tie_cmp : Operator.t =
  let stats = stats_or stats in
  let scoref = Expr.compile_float info.tb_schema score in
  let window = ref [] in
  {
    schema = info.tb_schema;
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        let scored =
          List.filter_map
            (fun tu ->
              let s = scoref tu in
              if Float.is_nan s then None else Some (tu, s))
            (Heap_file.to_list info.tb_heap)
        in
        let sorted =
          List.stable_sort
            (fun (t1, s1) (t2, s2) ->
              match Float.compare s2 s1 with 0 -> tie_cmp t1 t2 | c -> c)
            scored
        in
        let lo = max 1 lo in
        window :=
          if hi < lo then []
          else if not dense then
            sorted |> drop (lo - 1) |> take (hi - lo + 1)
          else begin
            (* Dense slicing: block i of the descending distinct-score run
               has dense rank i; the window keeps whole blocks. *)
            let _, _, rev =
              List.fold_left
                (fun (d, prev, acc) ((_, s) as e) ->
                  let d =
                    match prev with
                    | Some p when Float.compare p s = 0 -> d
                    | _ -> d + 1
                  in
                  let acc = if d >= lo && d <= hi then e :: acc else acc in
                  (d, Some s, acc))
                (0, None, []) sorted
            in
            List.rev rev
          end);
    next =
      (fun () ->
        match !window with
        | (tu, _) :: rest ->
            window := rest;
            Exec_stats.bump_emitted stats;
            Some tu
        | [] -> None);
    close = (fun () -> window := []);
  }
