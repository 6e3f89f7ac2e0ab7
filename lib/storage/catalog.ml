open Relalg

type column_stats = {
  cs_count : int;
  cs_distinct : int;
  cs_min : float;
  cs_max : float;
  cs_histogram : Histogram.t;
}

type table_stats = {
  ts_cardinality : int;
  ts_pages : int;
  ts_columns : (string * column_stats) list;
}

type index_info = {
  ix_name : string;
  ix_table : string;
  ix_key : Expr.t;
  ix_btree : Btree.t;
  ix_clustered : bool;
}

type table_info = {
  tb_name : string;
  tb_schema : Schema.t;
  tb_heap : Heap_file.t;
  tb_stats : table_stats;
  tb_indexes : index_info list;
}

type t = {
  io : Io_stats.t;
  pool : Buffer_pool.t;
  tuples_per_page : int;
  tables : (string, table_info) Hashtbl.t;
  (* Monotonically increasing version of the optimizer-visible statistics:
     bumped whenever histograms / row counts are (re)computed or the set of
     access paths changes. Cached plans are keyed on it, so a stats refresh
     invalidates every plan chosen under the old statistics. *)
  mutable stats_epoch : int;
  (* Per-table slices of the same counter: every bump names the table whose
     statistics changed, so a statement's effective epoch is the sum over
     the tables it actually reads — DML on table A no longer invalidates
     plans and cursors that only touch table B. *)
  table_epochs : (string, int) Hashtbl.t;
  (* Per table, the non-null values of each numeric column (schema position,
     bare name, sorted column). DML keeps them current, so statistics can be
     re-derived without rescanning the heap. *)
  sorted : (string, (int * string * Histogram.column) list) Hashtbl.t;
}

let create ?(pool_frames = 256) ?(tuples_per_page = 50) () =
  let io = Io_stats.create () in
  {
    io;
    pool = Buffer_pool.create ~frames:pool_frames io;
    tuples_per_page;
    tables = Hashtbl.create 16;
    stats_epoch = 0;
    table_epochs = Hashtbl.create 16;
    sorted = Hashtbl.create 16;
  }

let stats_epoch t = t.stats_epoch

let table_epoch t name =
  Option.value ~default:0 (Hashtbl.find_opt t.table_epochs name)

(* Sum of the per-table epochs: each is monotone, so the sum is monotone
   and an equality check on it is a sound staleness test for a statement
   reading exactly [names]. *)
let epoch_of_tables t names =
  List.fold_left (fun acc name -> acc + table_epoch t name) 0 names

let bump_stats_epoch t tname =
  t.stats_epoch <- t.stats_epoch + 1;
  Hashtbl.replace t.table_epochs tname (table_epoch t tname + 1)

let io t = t.io

let pool t = t.pool

let tuples_per_page t = t.tuples_per_page

let numeric_dtype = function
  | Value.Tint | Value.Tfloat -> true
  | Value.Tstring | Value.Tbool -> false

(* The sorted numeric columns of [schema] over the [n] tuples that [iter]
   visits. *)
let sorted_columns schema n iter =
  let numeric =
    List.concat
      (List.mapi
         (fun i col ->
           if numeric_dtype col.Schema.dtype then
             [ (i, col.Schema.name, Float.Array.create n, ref 0) ]
           else [])
         (Schema.columns schema))
  in
  iter (fun tu ->
      List.iter
        (fun (i, _, values, len) ->
          let v = Tuple.get tu i in
          if not (Value.is_null v) then begin
            Float.Array.set values !len (Value.to_float v);
            incr len
          end)
        numeric);
  List.map
    (fun (i, name, values, len) ->
      let values = if !len = n then values else Float.Array.sub values 0 !len in
      (i, name, Histogram.column values))
    numeric

(* The one statistics function: every table's stats are derived from its
   sorted columns, whether they were just built or kept current by DML. *)
let stats_of heap columns =
  {
    ts_cardinality = Heap_file.cardinality heap;
    ts_pages = Heap_file.n_pages heap;
    ts_columns =
      List.map
        (fun (_, name, column) ->
          let hist = Histogram.of_column column in
          ( name,
            {
              cs_count = Histogram.count hist;
              cs_distinct = Histogram.distinct_estimate hist;
              cs_min = Histogram.min_value hist;
              cs_max = Histogram.max_value hist;
              cs_histogram = hist;
            } ))
        columns;
  }

let create_table t name schema tuples =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Catalog.create_table: duplicate table " ^ name);
  let schema = Schema.rename_relation schema name in
  let heap = Heap_file.create ~tuples_per_page:t.tuples_per_page t.pool schema in
  Heap_file.load heap tuples;
  let columns =
    sorted_columns schema (List.length tuples) (fun f -> List.iter f tuples)
  in
  let info =
    {
      tb_name = name;
      tb_schema = schema;
      tb_heap = heap;
      tb_stats = stats_of heap columns;
      tb_indexes = [];
    }
  in
  Hashtbl.replace t.tables name info;
  Hashtbl.replace t.sorted name columns;
  bump_stats_epoch t name;
  info

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some info -> info
  | None -> raise Not_found

let find_table t name = Hashtbl.find_opt t.tables name

let tables t = Hashtbl.fold (fun _ info acc -> info :: acc) t.tables []

let rid_tuple (rid : Heap_file.rid) =
  [| Value.Int rid.Heap_file.page_id; Value.Int rid.Heap_file.slot |]

let rid_of_tuple tu =
  { Heap_file.page_id = Value.to_int tu.(0); slot = Value.to_int tu.(1) }

let create_index t ?(clustered = true) ~name ~table:tname ~key () =
  let info = table t tname in
  if List.exists (fun ix -> String.equal ix.ix_name name) info.tb_indexes then
    invalid_arg ("Catalog.create_index: duplicate index " ^ name);
  let keyf = Expr.compile info.tb_schema key in
  let entries =
    if clustered then
      List.map (fun tu -> (keyf tu, tu)) (Heap_file.to_list info.tb_heap)
    else
      List.rev
        (Heap_file.fold_with_rids
           (fun acc rid tu -> (keyf tu, rid_tuple rid) :: acc)
           [] info.tb_heap)
  in
  let btree = Btree.bulk_load t.io entries in
  let ix =
    { ix_name = name; ix_table = tname; ix_key = key; ix_btree = btree;
      ix_clustered = clustered }
  in
  Hashtbl.replace t.tables tname { info with tb_indexes = ix :: info.tb_indexes };
  bump_stats_epoch t tname;
  ix

(* A tuple's non-null numeric cells, paired with their sorted columns.
   Computing them for every tuple of a statement before touching anything
   rejects a wrong-arity tuple or a string in a numeric column up front. *)
let numeric_cells t info tu =
  if Tuple.arity tu <> Schema.arity info.tb_schema then
    invalid_arg ("Catalog: tuple arity mismatch for table " ^ info.tb_name);
  List.filter_map
    (fun (i, _, column) ->
      let v = Tuple.get tu i in
      if Value.is_null v then None else Some (column, Value.to_float v))
    (Hashtbl.find t.sorted info.tb_name)

let append_checked info (tu, cells) =
  let rid = Heap_file.append info.tb_heap tu in
  List.iter
    (fun ix ->
      let key = Expr.eval info.tb_schema ix.ix_key tu in
      let payload = if ix.ix_clustered then tu else rid_tuple rid in
      Btree.insert ix.ix_btree key payload)
    info.tb_indexes;
  List.iter (fun (column, v) -> Histogram.add column v) cells

let remove_checked info (rid, tu, cells) =
  List.iter
    (fun ix ->
      let key = Expr.eval info.tb_schema ix.ix_key tu in
      let payload = if ix.ix_clustered then tu else rid_tuple rid in
      ignore (Btree.delete ix.ix_btree key payload))
    info.tb_indexes;
  ignore (Heap_file.delete info.tb_heap rid);
  List.iter (fun (column, v) -> Histogram.remove column v) cells

let insert_into t ~table:tname tuples =
  let info = table t tname in
  List.map (fun tu -> (tu, numeric_cells t info tu)) tuples
  |> List.iter (append_checked info)

(* The live tuples satisfying [pred], in storage order, with their numeric
   cells: one pass over the heap pages that keeps only the matches. *)
let matching t info pred =
  let test = Expr.compile_bool info.tb_schema pred in
  List.rev
    (Heap_file.fold_with_rids
       (fun acc rid tu ->
         if test tu then (rid, tu, numeric_cells t info tu) :: acc else acc)
       [] info.tb_heap)

let delete_from t ~table:tname pred =
  let info = table t tname in
  let victims = matching t info pred in
  List.iter (remove_checked info) victims;
  List.length victims

let update_where t ~table:tname pred ~set =
  let info = table t tname in
  let setters =
    List.map
      (fun (column, f) ->
        match Schema.index_of info.tb_schema ~relation:tname column with
        | Some i -> (i, f)
        | None -> invalid_arg ("Catalog.update_where: unknown column " ^ column))
      set
  in
  let victims = matching t info pred in
  let replacements =
    List.map
      (fun (_, tu, _) ->
        let fresh = Array.copy tu in
        List.iter (fun (i, f) -> fresh.(i) <- f tu) setters;
        (fresh, numeric_cells t info fresh))
      victims
  in
  List.iter (remove_checked info) victims;
  List.iter (append_checked info) replacements;
  List.length replacements

let publish_stats t info columns =
  let refreshed = { info with tb_stats = stats_of info.tb_heap columns } in
  Hashtbl.replace t.tables info.tb_name refreshed;
  bump_stats_epoch t info.tb_name;
  refreshed

let refresh_stats t tname =
  publish_stats t (table t tname) (Hashtbl.find t.sorted tname)

let analyze t tname =
  let info = table t tname in
  let columns =
    sorted_columns info.tb_schema (Heap_file.cardinality info.tb_heap) (fun f ->
        Heap_file.iter f info.tb_heap)
  in
  Hashtbl.replace t.sorted tname columns;
  publish_stats t info columns

let index_payload_to_tuple t ix payload =
  if ix.ix_clustered then payload
  else begin
    let info = table t ix.ix_table in
    Heap_file.fetch info.tb_heap (rid_of_tuple payload)
  end

let index_lookup t ix key =
  List.map (index_payload_to_tuple t ix) (Btree.lookup ix.ix_btree key)

let indexes_on t tname =
  match find_table t tname with None -> [] | Some info -> info.tb_indexes

let find_index_on_expr t ~table:tname expr =
  List.find_opt (fun ix -> Expr.equal ix.ix_key expr) (indexes_on t tname)

let column_stats t ~table:tname ~column =
  match find_table t tname with
  | None -> None
  | Some info -> List.assoc_opt column info.tb_stats.ts_columns

let estimate_join_selectivity t ~left:(lt, lc) ~right:(rt, rc) =
  (* V(T, c): distinct values seen; for integer columns the observed value
     range is a better domain estimate when the column is sparse (uniform
     spread assumption), e.g. 5000 keys drawn from a domain of 10^6. *)
  let distinct table column =
    let is_int =
      match find_table t table with
      | None -> false
      | Some info -> (
          match Schema.index_of info.tb_schema ~relation:table column with
          | Some i -> (Schema.nth info.tb_schema i).Schema.dtype = Value.Tint
          | None -> false
          | exception Invalid_argument _ -> false)
    in
    match column_stats t ~table ~column with
    | Some cs when cs.cs_distinct > 0 ->
        let range =
          if is_int && cs.cs_max >= cs.cs_min then
            int_of_float (cs.cs_max -. cs.cs_min +. 1.0)
          else 0
        in
        max cs.cs_distinct range
    | _ -> (
        match find_table t table with
        | Some info -> max 1 info.tb_stats.ts_cardinality
        | None -> 1)
  in
  1.0 /. float_of_int (max (distinct lt lc) (distinct rt rc))

let reset_io t = Io_stats.reset t.io
