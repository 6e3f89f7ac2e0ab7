open Relalg
open Storage

let of_index ?(weight = 1.0) catalog ~score_index ~id_column =
  if weight <= 0.0 then invalid_arg "Index_sources.of_index: weight <= 0";
  let info = Catalog.table catalog score_index.Catalog.ix_table in
  let schema = info.Catalog.tb_schema in
  let id_idx = Schema.index_of_exn schema ~relation:info.Catalog.tb_name id_column in
  let scoref = Expr.compile_float schema score_index.Catalog.ix_key in
  let next = Btree.scan_desc score_index.Catalog.ix_btree in
  let entries = ref [] in
  let rec drain () =
    match next () with
    | None -> ()
    | Some payload ->
        let tu = Catalog.index_payload_to_tuple info score_index payload in
        entries :=
          (Value.to_int (Tuple.get tu id_idx), weight *. scoref tu) :: !entries;
        drain ()
  in
  drain ();
  Source.of_scores (List.rev !entries)

let heap_source catalog table ~id_column ~score_column ~weight =
  let info = Catalog.table catalog table in
  let schema = info.Catalog.tb_schema in
  let id_idx = Schema.index_of_exn schema ~relation:table id_column in
  let scoref = Expr.compile_float schema (Expr.col ~relation:table score_column) in
  Source.of_scores
    (List.map
       (fun tu -> (Value.to_int (Tuple.get tu id_idx), weight *. scoref tu))
       (Heap_file.to_list info.Catalog.tb_heap))

let source_for catalog table ~id_column ~score_column ~weight =
  match
    Catalog.find_index_on_expr catalog ~table (Expr.col ~relation:table score_column)
  with
  | Some ix -> of_index ~weight catalog ~score_index:ix ~id_column
  | None -> heap_source catalog table ~id_column ~score_column ~weight

let top_k_selection catalog ~tables ?(algorithm = `Ta) ~id_column ~score_column
    ~k () =
  let sources =
    Array.of_list
      (List.map
         (fun (table, weight) ->
           source_for catalog table ~id_column ~score_column ~weight)
         tables)
  in
  let combine = Scoring.Sum in
  match algorithm with
  | `Ta -> Aggregate.ta ~combine ~k sources
  | `Nra -> Aggregate.nra ~combine ~k sources
  | `Fagin -> Aggregate.fagin ~combine ~k sources
  | `Naive -> Aggregate.naive ~combine ~k sources
