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

(* One numeric column of a table as DML keeps it current: its non-null
   values sorted (statistics are re-derived from them without rescanning the
   heap) and its per-page zones (which prune the DML predicate scan). *)
type column = {
  pos : int;  (* schema position *)
  name : string;  (* bare column name *)
  values : Histogram.column;
  zones : Zones.t;
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
  columns : (string, column list) Hashtbl.t;  (* per table, its numeric columns *)
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
    columns = Hashtbl.create 16;
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

(* The numeric columns of [schema] over the [n] tuples that [iter] visits
   together with their page ordinals: tight zones, sorted values. *)
let build_columns schema n iter =
  let numeric =
    List.concat
      (List.mapi
         (fun i col ->
           if numeric_dtype col.Schema.dtype then
             [ (i, col.Schema.name, Float.Array.create n, ref 0, Zones.create ()) ]
           else [])
         (Schema.columns schema))
  in
  iter (fun page tu ->
      List.iter
        (fun (i, _, values, len, zones) ->
          let v = Tuple.get tu i in
          Zones.widen zones ~page v;
          if not (Value.is_null v) then begin
            Float.Array.set values !len (Value.to_float v);
            incr len
          end)
        numeric);
  List.map
    (fun (pos, name, values, len, zones) ->
      let values = if !len = n then values else Float.Array.sub values 0 !len in
      { pos; name; values = Histogram.column values; zones })
    numeric

(* The one statistics function: every table's stats are derived from its
   sorted columns, whether they were just built or kept current by DML. *)
let stats_of heap columns =
  {
    ts_cardinality = Heap_file.cardinality heap;
    ts_pages = Heap_file.n_pages heap;
    ts_columns =
      List.map
        (fun c ->
          let hist = Histogram.of_column c.values in
          ( c.name,
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
  let columns =
    build_columns schema (List.length tuples) (fun f ->
        List.iter
          (fun tu ->
            ignore (Heap_file.append heap tu);
            f (Heap_file.n_pages heap - 1) tu)
          tuples)
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
  Hashtbl.replace t.columns name columns;
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
           (fun acc _ rid tu -> (keyf tu, rid_tuple rid) :: acc)
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

(* Reject a tuple the table cannot hold — wrong arity, or a string in a
   numeric column. Every tuple of a statement is checked before the
   statement touches anything. *)
let validate info columns tu =
  if Tuple.arity tu <> Schema.arity info.tb_schema then
    invalid_arg ("Catalog: tuple arity mismatch for table " ^ info.tb_name);
  List.iter (fun c -> ignore (Value.to_float (Tuple.get tu c.pos))) columns

let add_value c v =
  if not (Value.is_null v) then Histogram.add c.values (Value.to_float v)

let remove_value c v =
  if not (Value.is_null v) then Histogram.remove c.values (Value.to_float v)

let index_key info ix tu = Expr.eval info.tb_schema ix.ix_key tu

let append_row info columns tu =
  let rid = Heap_file.append info.tb_heap tu in
  let page = Heap_file.n_pages info.tb_heap - 1 in
  List.iter
    (fun ix ->
      let payload = if ix.ix_clustered then tu else rid_tuple rid in
      Btree.insert ix.ix_btree (index_key info ix tu) payload)
    info.tb_indexes;
  List.iter
    (fun c ->
      let v = Tuple.get tu c.pos in
      Zones.widen c.zones ~page v;
      add_value c v)
    columns

let remove_row info columns (_, rid, tu) =
  List.iter
    (fun ix ->
      let payload = if ix.ix_clustered then tu else rid_tuple rid in
      ignore (Btree.delete ix.ix_btree (index_key info ix tu) payload))
    info.tb_indexes;
  ignore (Heap_file.delete info.tb_heap rid);
  List.iter (fun c -> remove_value c (Tuple.get tu c.pos)) columns

(* Rewrite the row at [rid] in place. An index entry moves only when its
   key changed; a clustered entry whose key did not has its leaf tuple
   swapped. Only the column cells that changed leave and re-enter the
   sorted columns, and widen the page's zones. *)
let replace_row info columns (page, rid, old, fresh) =
  Heap_file.replace info.tb_heap rid fresh;
  List.iter
    (fun ix ->
      let key = index_key info ix old and key' = index_key info ix fresh in
      let bt = ix.ix_btree in
      if ix.ix_clustered then begin
        if Value.identical key key' then ignore (Btree.replace bt key old fresh)
        else begin
          ignore (Btree.delete bt key old);
          Btree.insert bt key' fresh
        end
      end
      else if not (Value.identical key key') then begin
        ignore (Btree.delete bt key (rid_tuple rid));
        Btree.insert bt key' (rid_tuple rid)
      end)
    info.tb_indexes;
  List.iter
    (fun c ->
      let v = Tuple.get old c.pos and v' = Tuple.get fresh c.pos in
      if not (Value.identical v v') then begin
        remove_value c v;
        add_value c v';
        Zones.widen c.zones ~page v'
      end)
    columns

let insert_into t ~table:tname tuples =
  let info = table t tname in
  let columns = Hashtbl.find t.columns tname in
  List.iter (validate info columns) tuples;
  List.iter (append_row info columns) tuples

(* The zone tests a page must pass to hold a row satisfying [pred]: one per
   top-level conjunct [col op c] or [c op col] with [op] one of
   [= < <= > >=], [col] a numeric column and [c] an Int or a non-NaN Float
   ([Zones.may_match] admits every page for <>). Every other conjunct (OR,
   NOT, ...) admits every page. *)
let zone_tests info columns pred =
  let flip = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | (Expr.Eq | Expr.Ne) as op -> op
  in
  let test op (r : Expr.column_ref) v =
    let c =
      match v with
      | Value.Int i -> Some (float_of_int i)
      | Value.Float f when not (Float.is_nan f) -> Some f
      | _ -> None
    in
    match c, Schema.index_of info.tb_schema ?relation:r.relation r.name with
    | Some c, Some pos ->
        List.find_opt (fun col -> col.pos = pos) columns
        |> Option.map (fun col -> (col.zones, op, c))
    | _ -> None
  in
  let rec conjuncts = function
    | Expr.And (a, b) -> conjuncts a @ conjuncts b
    | Expr.Cmp (op, Expr.Col r, Expr.Const v) -> Option.to_list (test op r v)
    | Expr.Cmp (op, Expr.Const v, Expr.Col r) -> Option.to_list (test (flip op) r v)
    | _ -> []
  in
  conjuncts pred

(* The live rows satisfying [pred], in storage order, with their page
   ordinals: one pass over the pages whose zones admit every zone test. *)
let scan_matching info columns pred =
  let test = Expr.compile_bool info.tb_schema pred in
  let zones = zone_tests info columns pred in
  let admit page =
    List.for_all (fun (z, op, c) -> Zones.may_match z ~page op c) zones
  in
  List.rev
    (Heap_file.fold_with_rids ~admit
       (fun acc page rid tu -> if test tu then (page, rid, tu) :: acc else acc)
       [] info.tb_heap)

let matching t ~table:tname pred =
  let info = table t tname in
  List.map
    (fun (_, rid, tu) -> (rid, tu))
    (scan_matching info (Hashtbl.find t.columns tname) pred)

let delete_from t ~table:tname pred =
  let info = table t tname in
  let columns = Hashtbl.find t.columns tname in
  let victims = scan_matching info columns pred in
  List.iter (remove_row info columns) victims;
  List.length victims

let update_where t ~table:tname pred ~set =
  let info = table t tname in
  let columns = Hashtbl.find t.columns tname in
  let setters =
    List.map
      (fun (column, f) ->
        match Schema.index_of info.tb_schema ~relation:tname column with
        | Some i -> (i, f)
        | None -> invalid_arg ("Catalog.update_where: unknown column " ^ column))
      set
  in
  let rows =
    List.map
      (fun (page, rid, tu) ->
        let fresh = Array.copy tu in
        List.iter (fun (i, f) -> fresh.(i) <- f tu) setters;
        validate info columns fresh;
        (page, rid, tu, fresh))
      (scan_matching info columns pred)
  in
  List.iter (replace_row info columns) rows;
  List.length rows

let publish_stats t info columns =
  let refreshed = { info with tb_stats = stats_of info.tb_heap columns } in
  Hashtbl.replace t.tables info.tb_name refreshed;
  bump_stats_epoch t info.tb_name;
  refreshed

let refresh_stats t tname =
  publish_stats t (table t tname) (Hashtbl.find t.columns tname)

let analyze t tname =
  let info = table t tname in
  let columns =
    build_columns info.tb_schema (Heap_file.cardinality info.tb_heap) (fun f ->
        Heap_file.fold_with_rids (fun () page _ tu -> f page tu) () info.tb_heap)
  in
  Hashtbl.replace t.columns tname columns;
  publish_stats t info columns

let check t tname =
  let fail fmt = Printf.ksprintf (fun msg -> Error (tname ^ ": " ^ msg)) fmt in
  let rec first = function
    | [] -> Ok ()
    | f :: rest -> ( match f () with Ok () -> first rest | Error _ as e -> e)
  in
  match find_table t tname with
  | None -> fail "unknown table"
  | Some info ->
      let heap = info.tb_heap and columns = Hashtbl.find t.columns tname in
      let rows =
        List.rev
          (Heap_file.fold_with_rids
             (fun acc page rid tu -> (page, rid, tu) :: acc)
             [] heap)
      in
      let cardinality () =
        let live = List.length rows in
        if live = Heap_file.cardinality heap then Ok ()
        else fail "cardinality %d, %d live rows" (Heap_file.cardinality heap) live
      in
      (* Index entries as exactly comparable data, floats by their bits:
         [Value.compare] equates Int and Float across 2^53, which is no
         total order to sort two multisets by. *)
      let exact (key, payload) =
        List.map
          (function
            | Value.Float f -> Either.Left (Int64.bits_of_float f)
            | v -> Either.Right v)
          (key :: Array.to_list payload)
      in
      let index ix () =
        let held = Btree.to_list_asc ix.ix_btree in
        let live =
          List.map
            (fun (_, rid, tu) ->
              (index_key info ix tu, if ix.ix_clustered then tu else rid_tuple rid))
            rows
        in
        let sorted entries =
          List.sort compare (List.map (fun e -> (exact e, e)) entries)
        in
        let entry what (k, p) =
          fail "index %s: %s entry %s -> %s" ix.ix_name what (Value.to_string k)
            (Tuple.to_string p)
        in
        let rec diff held live =
          match held, live with
          | [], [] -> Ok ()
          | (a, _) :: held', (b, _) :: live' when a = b -> diff held' live'
          | (a, e) :: _, (b, _) :: _ when a < b -> entry "stray" e
          | (_, e) :: _, [] -> entry "stray" e
          | _, (_, e) :: _ -> entry "missing" e
        in
        match Btree.check_invariants ix.ix_btree with
        | Error e -> fail "index %s: %s" ix.ix_name e
        | Ok () -> diff (sorted held) (sorted live)
      in
      let column c () =
        let cells =
          List.filter_map
            (fun (_, _, tu) ->
              let v = Tuple.get tu c.pos in
              if Value.is_null v then None else Some (Value.to_float v))
            rows
        in
        (* NaNs compare equal whatever their bits, so they may sit in
           any order at the front of a sorted column. *)
        let same a b =
          Value.identical (Value.Float a) (Value.Float b)
          || (Float.is_nan a && Float.is_nan b)
        in
        let sorted values = Float.Array.to_list (Histogram.values values) in
        let kept = sorted c.values
        and expected = sorted (Histogram.column (Float.Array.of_list cells)) in
        match
          List.find_opt
            (fun (page, _, tu) -> not (Zones.covers c.zones ~page (Tuple.get tu c.pos)))
            rows
        with
        | Some (page, _, tu) ->
            fail "column %s: row %s outside the zone of page %d" c.name
              (Tuple.to_string tu) page
        | None ->
            if List.equal same kept expected then Ok ()
            else fail "column %s: sorted values differ from the heap's" c.name
      in
      first
        ((cardinality :: List.map index info.tb_indexes) @ List.map column columns)

let index_payload_to_tuple info ix payload =
  if ix.ix_clustered then payload
  else
    Heap_file.fetch info.tb_heap ~page_id:(Value.to_int payload.(0))
      ~slot:(Value.to_int payload.(1))

let index_lookup t ix key =
  let info = table t ix.ix_table in
  List.map (index_payload_to_tuple info ix) (Btree.lookup ix.ix_btree key)

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
