type command =
  | Ping
  | Prepare of { name : string; sql : string }
  | Execute of { name : string; k : int option }
  | Fetch of { name : string; n : int }
  | Close of string
  | Query of string
  | Explain of string
  | Rank of { table : string; column : string; value : float; dense : bool }
  | Stats of [ `Server | `Session ]
  | Wire of [ `Text | `Hex ]
  | Timeout of float option
  | Shard_add of string
  | Shard_list
  | Quit
  | Shutdown

(* Split off the first whitespace-delimited word; returns (word, rest)
   with rest trimmed of leading blanks. *)
let split_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

let parse_command line =
  let verb, rest = split_word line in
  match String.uppercase_ascii verb with
  | "" -> Error "empty command"
  | "PING" -> Ok Ping
  | "QUIT" -> Ok Quit
  | "SHUTDOWN" -> Ok Shutdown
  | "QUERY" ->
      if rest = "" then Error "QUERY requires a SQL statement"
      else Ok (Query rest)
  | "EXPLAIN" ->
      if rest = "" then Error "EXPLAIN requires a SQL statement"
      else Ok (Explain rest)
  | "PREPARE" ->
      let name, sql = split_word rest in
      if name = "" || sql = "" then Error "usage: PREPARE <name> <sql>"
      else Ok (Prepare { name; sql })
  | "EXECUTE" -> (
      let name, karg = split_word rest in
      if name = "" then Error "usage: EXECUTE <name> [k]"
      else
        match karg with
        | "" -> Ok (Execute { name; k = None })
        | karg -> (
            match int_of_string_opt karg with
            | Some k -> Ok (Execute { name; k = Some k })
            | None -> Error (Printf.sprintf "EXECUTE: invalid k %S" karg)))
  | "FETCH" -> (
      (* FETCH <name> NEXT <n> — cursor-style continuation of an executed
         statement; FETCH <name> NEXT defaults to one row. *)
      let name, rest = split_word rest in
      let next_kw, narg = split_word rest in
      if name = "" || String.uppercase_ascii next_kw <> "NEXT" then
        Error "usage: FETCH <name> NEXT [n]"
      else
        match narg with
        | "" -> Ok (Fetch { name; n = 1 })
        | narg -> (
            match int_of_string_opt narg with
            | Some n -> Ok (Fetch { name; n })
            | None -> Error (Printf.sprintf "FETCH: invalid count %S" narg)))
  | "CLOSE" ->
      if rest = "" then Error "usage: CLOSE <name>"
      else Ok (Close rest)
  | "RANK" -> (
      (* RANK <table>.<column> OF <value> [DENSE] — the minimum rank a row
         scoring <value> holds (or would hold) on the order-statistic
         index; DENSE numbers distinct scores consecutively instead. *)
      let target, rest = split_word rest in
      let of_kw, rest = split_word rest in
      let varg, dense_kw = split_word rest in
      let dotted =
        match String.index_opt target '.' with
        | Some i when i > 0 && i < String.length target - 1 ->
            Some
              ( String.sub target 0 i,
                String.sub target (i + 1) (String.length target - i - 1) )
        | _ -> None
      in
      match dotted with
      | _
        when String.uppercase_ascii of_kw <> "OF"
             || varg = ""
             || not
                  (dense_kw = ""
                  || String.uppercase_ascii dense_kw = "DENSE") ->
          Error "usage: RANK <table>.<column> OF <value> [DENSE]"
      | None -> Error "usage: RANK <table>.<column> OF <value> [DENSE]"
      | Some (table, column) -> (
          match float_of_string_opt varg with
          | Some value ->
              Ok
                (Rank
                   {
                     table;
                     column;
                     value;
                     dense = String.uppercase_ascii dense_kw = "DENSE";
                   })
          | None -> Error (Printf.sprintf "RANK: invalid value %S" varg)))
  | "WIRE" -> (
      (* WIRE TEXT|HEX — row rendering for this connection. HEX encodes
         cells with the persist codec (floats as %h), making the stream
         bit-exact; the coordinator always switches its shard links to
         HEX before scattering. *)
      match String.uppercase_ascii rest with
      | "TEXT" -> Ok (Wire `Text)
      | "HEX" -> Ok (Wire `Hex)
      | _ -> Error "usage: WIRE TEXT|HEX")
  | "TIMEOUT" -> (
      (* TIMEOUT <seconds>|DEFAULT — session statement deadline. *)
      match String.uppercase_ascii rest with
      | "DEFAULT" -> Ok (Timeout None)
      | _ -> (
          match float_of_string_opt rest with
          | Some s when s > 0.0 -> Ok (Timeout (Some s))
          | _ -> Error "usage: TIMEOUT <seconds>|DEFAULT"))
  | "SHARD" -> (
      let sub, arg = split_word rest in
      match String.uppercase_ascii sub with
      | "LIST" when arg = "" -> Ok Shard_list
      | "ADD" when arg <> "" -> Ok (Shard_add arg)
      | _ -> Error "usage: SHARD LIST | SHARD ADD <unix-socket-path>")
  | "STATS" -> (
      match String.uppercase_ascii rest with
      | "" -> Ok (Stats `Server)
      | "SESSION" -> Ok (Stats `Session)
      | _ -> Error "usage: STATS [SESSION]")
  | verb -> Error (Printf.sprintf "unknown command %S" verb)

type response = {
  ok : bool;
  code : string;
  fields : (string * string) list;
  message : string;
  payload : string list;
}

let ok_response ?(fields = []) payload =
  { ok = true; code = ""; fields; message = ""; payload }

let err_response ~code message =
  { ok = false; code; fields = []; message; payload = [] }

let render r =
  if r.ok then begin
    let b = Buffer.create 64 in
    Buffer.add_string b "OK ";
    Rkutil.Num_codec.add_int b (List.length r.payload);
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ' ';
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      r.fields;
    Buffer.contents b :: r.payload
  end
  else [ String.concat " " [ "ERR"; r.code; r.message ] ]

let payload_count header =
  match String.split_on_char ' ' (String.trim header) with
  | "OK" :: n :: _ -> ( match int_of_string_opt n with Some n -> n | None -> 0)
  | _ -> 0

let parse_header header =
  match String.split_on_char ' ' (String.trim header) with
  | "OK" :: n :: fields -> (
      match int_of_string_opt n with
      | None -> Error (Printf.sprintf "malformed OK header %S" header)
      | Some _ ->
          let fields =
            List.filter_map
              (fun f ->
                match String.index_opt f '=' with
                | None -> None
                | Some i ->
                    Some
                      ( String.sub f 0 i,
                        String.sub f (i + 1) (String.length f - i - 1) ))
              fields
          in
          Ok { ok = true; code = ""; fields; message = ""; payload = [] })
  | "ERR" :: code :: rest ->
      Ok
        {
          ok = false;
          code;
          fields = [];
          message = String.concat " " rest;
          payload = [];
        }
  | _ -> Error (Printf.sprintf "malformed response header %S" header)

let add_cell = function
  | `Text -> Relalg.Value.add_text
  | `Hex -> Storage.Persist.add_value

let add_score codec b s =
  Buffer.add_string b "score=";
  match codec with
  | `Text -> Rkutil.Num_codec.add_fixed b ~decimals:6 s
  | `Hex -> Rkutil.Num_codec.add_hex b s

let render_score codec s =
  let b = Buffer.create 32 in
  add_score codec b s;
  Buffer.contents b

let score_of_slice codec s pos len =
  if
    len > 6
    && s.[pos] = 's' && s.[pos + 1] = 'c' && s.[pos + 2] = 'o'
    && s.[pos + 3] = 'r' && s.[pos + 4] = 'e' && s.[pos + 5] = '='
  then
    match codec with
    | `Text -> float_of_string_opt (String.sub s (pos + 6) (len - 6))
    | `Hex -> (
        match Rkutil.Num_codec.hex_float_of_slice s (pos + 6) (len - 6) with
        | f -> Some f
        | exception Failure _ -> None)
  else None

let parse_score codec s = score_of_slice codec s 0 (String.length s)

let render_rows codec rows scores =
  let buf = Buffer.create 128 in
  let cell = add_cell codec in
  let line row score =
    Buffer.clear buf;
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf '\t';
        cell buf v)
      row;
    (match score with
    | None -> ()
    | Some s ->
        if Array.length row > 0 then Buffer.add_char buf '\t';
        add_score codec buf s);
    Buffer.contents buf
  in
  match scores with
  | [] -> List.map (fun row -> line row None) rows
  | ss -> List.map2 (fun row s -> line row (Some s)) rows ss

let latency_ms seconds =
  let b = Buffer.create 16 in
  Rkutil.Num_codec.add_fixed b ~decimals:3 (seconds *. 1000.0);
  Buffer.contents b

let timeout_value = function
  | None -> "default"
  | Some s ->
      let b = Buffer.create 16 in
      Rkutil.Num_codec.add_g b s;
      Buffer.contents b

let render_reply ?(codec = `Text) (r : Service.reply) =
  let fields =
    [
      ("cached", if r.Service.cached then "1" else "0");
      ("reoptimized", if r.Service.reoptimized then "1" else "0");
      ("latency_ms", latency_ms r.Service.latency_s);
    ]
  in
  match r.Service.affected with
  | Some n -> ok_response ~fields:(("affected", string_of_int n) :: fields) []
  | None ->
      let header =
        if r.Service.columns = [] then []
        else [ String.concat "\t" r.Service.columns ]
      in
      let rows = render_rows codec r.Service.rows r.Service.scores in
      ok_response
        ~fields:(("rows", string_of_int (List.length r.Service.rows)) :: fields)
        (header @ rows)
