open Relalg

let dtype_tag = function
  | Value.Tint -> "int"
  | Value.Tfloat -> "float"
  | Value.Tstring -> "string"
  | Value.Tbool -> "bool"

let dtype_of_tag = function
  | "int" -> Value.Tint
  | "float" -> Value.Tfloat
  | "string" -> Value.Tstring
  | "bool" -> Value.Tbool
  | s -> failwith ("Persist: unknown type tag " ^ s)

(* The HEX cell writer: the persist codec and the [WIRE HEX] rows share
   it, so it appends to the caller's buffer. [String.escaped] returns a
   string needing no escapes unchanged. *)
let add_value b = function
  | Value.Null -> Buffer.add_string b "n:"
  | Value.Int i ->
      Buffer.add_string b "i:";
      Rkutil.Num_codec.add_int b i
  | Value.Float f ->
      Buffer.add_string b "f:";
      Rkutil.Num_codec.add_hex b f
  | Value.Str s ->
      Buffer.add_string b "s:";
      Buffer.add_string b (String.escaped s)
  | Value.Bool x -> Buffer.add_string b (if x then "b:true" else "b:false")

let value_encode v =
  let b = Buffer.create 24 in
  add_value b v;
  Buffer.contents b

(* No byte of [s.[pos] .. s.[pos + len - 1]] is [c1] or [c2]. *)
let slice_free s pos len c1 c2 =
  let rec go i = i >= pos + len || (s.[i] <> c1 && s.[i] <> c2 && go (i + 1)) in
  go pos

(* The slice spells [lit]. *)
let slice_is s pos len lit =
  len = String.length lit
  &&
  let rec go i = i >= len || (s.[pos + i] = lit.[i] && go (i + 1)) in
  go 0

(* The HEX cell reader, over a slice so that a row is decoded in place.
   Payloads the fast readers do not recognize go to the same stdlib
   functions [value_decode] always used. *)
let value_of_slice s pos len =
  if len < 2 || s.[pos + 1] <> ':' then
    failwith ("Persist: bad value " ^ String.sub s pos len);
  let p = pos + 2 and n = len - 2 in
  match s.[pos] with
  | 'n' -> Value.Null
  | 'i' -> Value.Int (Rkutil.Num_codec.int_of_slice s p n)
  | 'f' -> Value.Float (Rkutil.Num_codec.hex_float_of_slice s p n)
  | 's' ->
      (* An escaped string holds a backslash for every byte that needs
         one; a slice with neither backslash nor quote is its own text. *)
      if slice_free s p n '\\' '"' then Value.Str (String.sub s p n)
      else Value.Str (Scanf.unescaped (String.sub s p n))
  | 'b' ->
      if slice_is s p n "true" then Value.Bool true
      else if slice_is s p n "false" then Value.Bool false
      else Value.Bool (bool_of_string (String.sub s p n))
  | c -> failwith (Printf.sprintf "Persist: bad value tag %c" c)

let value_decode s = value_of_slice s 0 (String.length s)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (line :: acc)
        | None -> List.rev acc
      in
      go [])

(* Meta format, one record per line (tab-separated fields):
     table <name> <col>:<type> <col>:<type> ...
     index <table> <name> <clustered|unclustered> <key sexp>   *)
let save catalog ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tables =
    List.sort
      (fun a b -> String.compare a.Catalog.tb_name b.Catalog.tb_name)
      (Catalog.tables catalog)
  in
  let meta = Buffer.create 256 in
  List.iter
    (fun (info : Catalog.table_info) ->
      let cols =
        List.map
          (fun (c : Schema.column) -> c.Schema.name ^ ":" ^ dtype_tag c.Schema.dtype)
          (Schema.columns info.tb_schema)
      in
      Buffer.add_string meta
        (String.concat "\t" (("table" :: info.tb_name :: cols)) ^ "\n");
      List.iter
        (fun (ix : Catalog.index_info) ->
          Buffer.add_string meta
            (String.concat "\t"
               [
                 "index"; info.tb_name; ix.ix_name;
                 (if ix.ix_clustered then "clustered" else "unclustered");
                 Expr_codec.to_string ix.ix_key;
               ]
            ^ "\n"))
        (List.rev info.tb_indexes);
      let rows = Buffer.create 4096 in
      Heap_file.iter
        (fun tu ->
          Array.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char rows '\t';
              add_value rows v)
            tu;
          Buffer.add_char rows '\n')
        info.tb_heap;
      write_file (Filename.concat dir (info.tb_name ^ ".tbl")) (Buffer.contents rows))
    tables;
  write_file (Filename.concat dir "catalog.meta") (Buffer.contents meta)

let load ?pool_frames ?tuples_per_page ~dir () =
  let catalog = Catalog.create ?pool_frames ?tuples_per_page () in
  let meta = read_lines (Filename.concat dir "catalog.meta") in
  let load_table name cols =
    let schema =
      Schema.of_columns
        (List.map
           (fun spec ->
             match String.index_opt spec ':' with
             | Some i ->
                 Schema.column
                   (String.sub spec 0 i)
                   (dtype_of_tag (String.sub spec (i + 1) (String.length spec - i - 1)))
             | None -> failwith ("Persist: bad column spec " ^ spec))
           cols)
    in
    let tuples =
      List.filter_map
        (fun line ->
          if String.trim line = "" then None
          else
            Some
              (Array.of_list
                 (List.map value_decode (String.split_on_char '\t' line))))
        (read_lines (Filename.concat dir (name ^ ".tbl")))
    in
    ignore (Catalog.create_table catalog name schema tuples)
  in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match String.split_on_char '\t' line with
        | "table" :: name :: cols -> load_table name cols
        | [ "index"; table; name; mode; key ] ->
            let clustered =
              match mode with
              | "clustered" -> true
              | "unclustered" -> false
              | _ -> failwith ("Persist: bad index mode " ^ mode)
            in
            ignore
              (Catalog.create_index catalog ~clustered ~name ~table
                 ~key:(Expr_codec.of_string_exn key) ())
        | _ -> failwith ("Persist: bad meta line: " ^ line))
    meta;
  catalog
