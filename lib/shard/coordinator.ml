open Relalg
module Svc = Server.Service
module Proto = Server.Protocol
module Sql = Sqlfront.Sql
module Ast = Sqlfront.Ast
module Binder = Sqlfront.Binder

type reply = {
  columns : string list;
  rows : Tuple.t list;
  scores : float list;
  affected : int option;
  scattered : bool;
  depths : int array;
  latency_s : float;
}

(* Internal error escape: public entry points catch it at the boundary. *)
exception Err of Svc.error

type link = {
  lk_id : int;
  lk_endpoint : Server.Listener.endpoint;
  mutable lk_client : Server.Client.t option;
  mutable lk_session : int;
      (* Bumped whenever the connection drops: the shard-side statements
         of the old session are gone with it. *)
  lk_idle : (string, string list) Hashtbl.t;
      (* Pushed SQL -> names of finished scatters whose statement is
         still prepared in the current shard session, ready for reuse. *)
  mutable lk_defer : string list;
      (* CLOSE lines of finished scatters, newest first: they lead the
         link's next batch and their replies are dropped. *)
}

let new_link i ep =
  { lk_id = i; lk_endpoint = ep; lk_client = None; lk_session = 0;
    lk_idle = Hashtbl.create 8; lk_defer = [] }

(* A scatter plan: everything derivable from the template alone, cached
   on (canonical text, partitioning epoch). *)
type scatter = {
  sc_window : (int * int) option;  (* None = top-k (streamed). *)
  sc_dense : bool;
  sc_push : string;  (* Pushed-down per-shard subquery (canonical). *)
  sc_k : int option;  (* k' bound: build-time k for top-k, hi for windows. *)
  sc_prep : Sql.prepared;  (* Mirror plan: schema, projection, numbering. *)
  sc_schema : Schema.t;  (* Plan output schema (row wire order target). *)
  sc_names : string array;  (* Qualified column names of [sc_schema]. *)
  sc_perm : int array;  (* Canonical tie-break projection of the schema. *)
  sc_filter : (Tuple.t -> bool) option;  (* Residual window filter. *)
  sc_tables : string list;
}

(* One shard's half of an in-flight gather. *)
type source = {
  so_link : link;
  so_name : string;  (* Shard-side prepared-statement / cursor name. *)
  so_push : string;  (* The statement's pushed SQL. *)
  so_session : int;  (* [lk_session] the statement was prepared in. *)
  mutable so_perm : int array option;  (* schema pos -> wire cell pos. *)
  mutable so_cells : int array;  (* Cell offsets of the row being parsed. *)
  mutable so_buf : (Tuple.t * float) list;  (* Parsed, not yet merged. *)
  mutable so_depth : int;  (* Observed depth: rows received so far. *)
  mutable so_bound : int;  (* Last k bound sent with EXECUTE. *)
  mutable so_exhausted : bool;
  mutable so_no_cursor : bool;  (* Shard plan not enumerable: re-EXECUTE. *)
}

type gcursor = {
  gc_sc : scatter;
  gc_srcs : source array;
  mutable gc_pos : int;  (* Absolute rank of the next row to emit. *)
  gc_epoch : int;  (* Partitioning epoch at open. *)
  gc_stats : int;  (* Mirror stats epoch of the FROM tables at open. *)
}

type t = {
  co_mirror : Storage.Catalog.t;
  co_local : Svc.t;
  co_config : Svc.config;
  co_lock : Rkutil.Latch.t;
      (* Serializes all shard I/O and link state. Long-class by design:
         RPC round-trips run under it. *)
  mutable co_part : Partition.t;
  mutable co_links : link array;
  mutable co_epoch : int;
  mutable co_gen : int;  (* Fresh shard-side statement names. *)
  mutable co_reshard : (t -> string -> (unit, string) result) option;
  co_scatters : (string * int, scatter option) Hashtbl.t;
}

type session = {
  ss_t : t;
  ss_sv : Svc.session;
  ss_tpls : (string, Sql.template) Hashtbl.t;
  ss_gcs : (string, gcursor) Hashtbl.t;
  mutable ss_timeout : float option;
}

let with_lock t f =
  Rkutil.Latch.protect t.co_lock (fun () ->
      Rkutil.Latch.guarded t.co_lock "coordinator.links";
      f ())

let endpoint_string ep = Format.asprintf "%a" Server.Listener.pp_endpoint ep

(* ------------------------------------------------------------------ *)
(* Shard RPC plumbing (all under the coordinator lock).               *)

let drop_client lk =
  (match lk.lk_client with
  | Some c -> ( try Server.Client.close c with _ -> ())
  | None -> ());
  lk.lk_client <- None;
  lk.lk_session <- lk.lk_session + 1;
  lk.lk_defer <- [];
  Hashtbl.reset lk.lk_idle

let link_client lk =
  match lk.lk_client with
  | Some c -> c
  | None -> (
      match Server.Client.connect lk.lk_endpoint with
      | exception Unix.Unix_error (e, _, _) ->
          raise
            (Err
               (Svc.Exec_error
                  (Printf.sprintf "shard %d unreachable at %s: %s" lk.lk_id
                     (endpoint_string lk.lk_endpoint) (Unix.error_message e))))
      | c ->
          lk.lk_client <- Some c;
          (* Bit-exact row codec for the whole connection. *)
          (match Server.Client.request c "WIRE HEX" with
          | Ok r when r.Proto.ok -> ()
          | _ ->
              drop_client lk;
              raise
                (Err
                   (Svc.Exec_error
                      (Printf.sprintf "shard %d: WIRE HEX refused" lk.lk_id))));
          c)

let shard_error lk (resp : Proto.response) =
  match resp.Proto.code with
  | "TIMEOUT" -> Svc.Timeout
  | "QUEUE_FULL" -> Svc.Queue_full resp.Proto.message
  | code ->
      Svc.Exec_error
        (Printf.sprintf "shard %d: %s %s" lk.lk_id code resp.Proto.message)

(* A transport failure drops the connection, so the next statement
   reconnects in a fresh shard session. *)
let transport_error lk e =
  drop_client lk;
  Svc.Exec_error (Printf.sprintf "shard %d: transport: %s" lk.lk_id e)

exception Lost of string  (* A link's receive failed mid-batch. *)

(* One pipelined step of a scatter over several links. Every link is
   connected first, so nothing is written when one is unreachable. Then
   each link gets its batch in one flush, before any reply is read: the
   CLOSEs deferred to it, a TIMEOUT carrying the remaining deadline (when
   [deadline] is given), then [lines]. Then every reply of every link is
   read, so the links stay framed whatever fails.

   Per link, in the order of [steps]: [replies.(j)] answers [lines.(j)]
   ([None] if the link dropped first), and the link's error, if its
   transport failed or it refused the TIMEOUT. Callers raise the first
   error only after handling every link's replies. *)
let exchange ?deadline steps =
  List.iter (fun (lk, _) -> ignore (link_client lk)) steps;
  let timeout =
    match deadline with
    | None -> []
    | Some d ->
        let remaining = d -. Unix.gettimeofday () in
        if remaining <= 0.0 then raise (Err Svc.Timeout);
        let b = Buffer.create 24 in
        Buffer.add_string b "TIMEOUT ";
        (* Below 5e-7 six decimals would read 0, which the verb refuses. *)
        Rkutil.Num_codec.add_fixed b ~decimals:6 (Float.max remaining 1e-6);
        [ Buffer.contents b ]
  in
  let posted =
    List.map
      (fun (lk, lines) ->
        let closes = List.rev lk.lk_defer in
        lk.lk_defer <- [];
        let sent =
          match lk.lk_client with
          | None -> Error "connection closed"
          | Some c -> Server.Client.send c (closes @ timeout @ lines)
        in
        (lk, List.length closes, lines, sent))
      steps
  in
  List.map
    (fun (lk, ncloses, lines, sent) ->
      let replies = Array.make (List.length lines) None in
      let error =
        match (sent, lk.lk_client) with
        | Error e, _ -> Some (transport_error lk e)
        | Ok (), None -> Some (transport_error lk "connection closed")
        | Ok (), Some c -> (
            let recv () =
              match Server.Client.receive c with
              | Ok r -> r
              | Error e -> raise (Lost e)
            in
            try
              for _ = 1 to ncloses do
                ignore (recv ())
              done;
              let refused =
                match timeout with
                | [] -> None
                | _ ->
                    let r = recv () in
                    if r.Proto.ok then None else Some (shard_error lk r)
              in
              Array.iteri (fun j _ -> replies.(j) <- Some (recv ())) replies;
              refused
            with Lost e -> Some (transport_error lk e))
      in
      (lk, replies, error))
    posted

(* The reply to line [j] of a link's batch, or the error it stands for. *)
let reply_ok (lk, replies, error) j =
  match (error, replies.(j)) with
  | Some e, _ -> Error e
  | None, None -> Error (Svc.Exec_error (Printf.sprintf "shard %d: no reply" lk.lk_id))
  | None, Some r when r.Proto.ok -> Ok r
  | None, Some r -> Error (shard_error lk r)

(* The first error of a step, raised once every reply has been read. *)
let first_error () =
  let first = ref None in
  let note e = if Option.is_none !first then first := Some e in
  let raise_first () = Option.iter (fun e -> raise (Err e)) !first in
  (note, raise_first)

(* ------------------------------------------------------------------ *)
(* Wire parsing: HEX payload lines back into (tuple, score) rows.      *)

let header_perm sc lk header =
  let names = String.split_on_char '\t' header in
  Array.map
    (fun want ->
      let rec go i = function
        | [] ->
            raise
              (Err
                 (Svc.Exec_error
                    (Printf.sprintf "shard %d: column %s missing from reply"
                       lk.lk_id want)))
        | n :: tl -> if String.equal n want then i else go (i + 1) tl
      in
      go 0 names)
    sc.sc_names

(* Decode one HEX row in place: the offsets of its cells go to the
   source's scratch array, then the score trailer and the schema's cells
   are read from slices of the line. *)
let parse_row so perm line =
  let lk = so.so_link in
  let len = String.length line in
  let tabs = ref 0 in
  for i = 0 to len - 1 do
    if String.unsafe_get line i = '\t' then incr tabs
  done;
  let ncells = !tabs + 1 in
  if Array.length so.so_cells <= ncells then
    so.so_cells <- Array.make (ncells + 1) 0;
  (* Cell c spans [starts.(c), starts.(c + 1) - 1). *)
  let starts = so.so_cells in
  let c = ref 1 in
  for i = 0 to len - 1 do
    if String.unsafe_get line i = '\t' then begin
      starts.(!c) <- i + 1;
      incr c
    end
  done;
  starts.(ncells) <- len + 1;
  let cell_len c = starts.(c + 1) - starts.(c) - 1 in
  let last = ncells - 1 in
  let score =
    match Proto.score_of_slice `Hex line starts.(last) (cell_len last) with
    | Some s -> s
    | None ->
        raise
          (Err
             (Svc.Exec_error
                (Printf.sprintf "shard %d: row missing score trailer" lk.lk_id)))
  in
  let tu = Array.make (Array.length perm) Value.Null in
  for j = 0 to Array.length perm - 1 do
    let p = perm.(j) in
    if p >= last then raise (Err (Svc.Exec_error "shard row arity mismatch"));
    tu.(j) <-
      (match Storage.Persist.value_of_slice line starts.(p) (cell_len p) with
      | v -> v
      | exception _ ->
          raise
            (Err
               (Svc.Exec_error
                  (Printf.sprintf "shard %d: undecodable cell %S" lk.lk_id
                     (String.sub line starts.(p) (cell_len p))))))
  done;
  (tu, score)

(* Parse a SELECT reply (header + rows); caches the header permutation
   on the source across batches of one gather. *)
let parse_reply sc so (resp : Proto.response) =
  match resp.Proto.payload with
  | [] -> []
  | header :: lines ->
      let perm =
        match so.so_perm with
        | Some p -> p
        | None ->
            let p = header_perm sc so.so_link header in
            so.so_perm <- Some p;
            p
      in
      List.map (parse_row so perm) lines

(* ------------------------------------------------------------------ *)
(* Gather merge.                                                       *)

(* Global order: score desc, canonical tuple order, shard id — the same
   tie-break the single-node enumeration uses, with the shard id as a
   final (never reached for distinct tuples) stabilizer. *)
let row_compare sc (t1, s1, i1) (t2, s2, i2) =
  let c = Float.compare s2 s1 in
  if c <> 0 then c
  else
    let c = Core.Executor.canonical_compare sc.sc_perm t1 t2 in
    if c <> 0 then c else Int.compare i1 i2

let fetch_line so n =
  String.concat " " [ "FETCH"; so.so_name; "NEXT"; string_of_int n ]

let execute_line so bound =
  String.concat " " [ "EXECUTE"; so.so_name; string_of_int bound ]

(* Refill every drained top-k source in one exchange: FETCH NEXT on the
   shard cursors, then — for shard plans that are not enumerable, which
   answer UNKNOWN_CURSOR — re-EXECUTE with a doubled bound and skip the
   rows already received. *)
let refill sc srcs ~deadline ~batch =
  let n = max 1 batch in
  let drained =
    List.filter
      (fun so -> so.so_buf = [] && not so.so_exhausted)
      (Array.to_list srcs)
  in
  let note, raise_first = first_error () in
  let fetching = List.filter (fun so -> not so.so_no_cursor) drained in
  if fetching <> [] then begin
    let results =
      exchange ~deadline
        (List.map (fun so -> (so.so_link, [ fetch_line so n ])) fetching)
    in
    List.iter2
      (fun so ((_, replies, error) as res) ->
        match (error, replies.(0)) with
        | None, Some r
          when (not r.Proto.ok) && String.equal r.Proto.code "UNKNOWN_CURSOR" ->
            so.so_no_cursor <- true
        | _ -> (
            match reply_ok res 0 with
            | Error e -> note e
            | Ok resp -> (
                match parse_reply sc so resp with
                | exception Err e -> note e
                | rows ->
                    let got = List.length rows in
                    so.so_buf <- rows;
                    so.so_depth <- so.so_depth + got;
                    if got < n then so.so_exhausted <- true)))
      fetching results
  end;
  raise_first ();
  let reexec =
    List.filter_map
      (fun so ->
        if so.so_no_cursor then Some (so, so.so_bound + max n so.so_bound)
        else None)
      drained
  in
  if reexec <> [] then begin
    let results =
      exchange ~deadline
        (List.map
           (fun (so, bound) -> (so.so_link, [ execute_line so bound ]))
           reexec)
    in
    List.iter2
      (fun (so, bound) res ->
        match reply_ok res 0 with
        | Error e -> note e
        | Ok resp -> (
            match parse_reply sc so resp with
            | exception Err e -> note e
            | rows ->
                let total = List.length rows in
                let rec drop k l =
                  if k <= 0 then l
                  else match l with [] -> [] | _ :: tl -> drop (k - 1) tl
                in
                so.so_buf <- drop so.so_depth rows;
                so.so_depth <- max so.so_depth total;
                so.so_bound <- bound;
                if total < bound then so.so_exhausted <- true))
      reexec results;
    raise_first ()
  end

(* Pull the next [n] globally-best rows out of the shard streams.
   Threshold-style: each stream's head is its best remaining score, so
   emitting the max head is exact; a stream is refilled only when its
   buffer drains, so shards that lose the race are never fetched deeper.
   All streams drained at one step are refilled in one exchange. *)
let gather_pull sc srcs ~deadline n =
  let nshards = Array.length srcs in
  let batch = max 1 ((n / max 1 nshards) + 8) in
  let out = ref [] in
  let got = ref 0 in
  let continue = ref true in
  while !continue && !got < n do
    if Unix.gettimeofday () > deadline then raise (Err Svc.Timeout);
    refill sc srcs ~deadline ~batch;
    let best = ref None in
    Array.iteri
      (fun i so ->
        match so.so_buf with
        | [] -> ()
        | (tu, s) :: _ -> (
            match !best with
            | None -> best := Some (i, tu, s)
            | Some (j, tu', s') ->
                if row_compare sc (tu, s, i) (tu', s', j) < 0 then
                  best := Some (i, tu, s)))
      srcs;
    match !best with
    | None -> continue := false
    | Some (i, tu, s) ->
        srcs.(i).so_buf <- List.tl srcs.(i).so_buf;
        out := (tu, s) :: !out;
        incr got
  done;
  List.rev !out

(* Hand a finished or failed gather's statement names back to their
   links for the next scatter of the same SQL, each shard cursor closed
   at the head of the link's next batch — unless the session the name
   was prepared in has since dropped, or [prepared i] says source [i]'s
   PREPARE never succeeded. *)
let release_sources ?(prepared = fun _ -> true) srcs =
  Array.iteri
    (fun i so ->
      let lk = so.so_link in
      if lk.lk_session = so.so_session && prepared i then begin
        lk.lk_defer <- ("CLOSE " ^ so.so_name) :: lk.lk_defer;
        Hashtbl.replace lk.lk_idle so.so_push
          (so.so_name
          :: Option.value ~default:[] (Hashtbl.find_opt lk.lk_idle so.so_push))
      end)
    srcs

(* Open the per-shard streams of a top-k scatter and EXECUTE them at the
   initial batch — the flat-prior per-shard expectation k/N plus slack,
   never more than k' = k — in one exchange. Each link's statement is a
   closed scatter's of the same SQL, or a fresh PREPARE in the same
   batch. Names double as cursor names, and
   only finished scatters' names are reused, so a name never belongs to
   two open scatters. Every link is connected before a name is taken;
   on any error every name that was prepared goes back to its link. *)
let open_sources t sc ~k ~deadline =
  let links = t.co_links in
  let n = Array.length links in
  let b0 = max 1 (min k ((k / max 1 n) + 8)) in
  Array.iter (fun lk -> ignore (link_client lk)) links;
  let fresh = Array.make n false in
  let srcs =
    Array.mapi
      (fun i lk ->
        let name =
          match Hashtbl.find_opt lk.lk_idle sc.sc_push with
          | Some (name :: rest) ->
              Hashtbl.replace lk.lk_idle sc.sc_push rest;
              name
          | Some [] | None ->
              t.co_gen <- t.co_gen + 1;
              fresh.(i) <- true;
              "g" ^ string_of_int t.co_gen
        in
        {
          so_link = lk;
          so_name = name;
          so_push = sc.sc_push;
          so_session = lk.lk_session;
          so_perm = None;
          so_cells = [||];
          so_buf = [];
          so_depth = 0;
          so_bound = b0;
          so_exhausted = false;
          so_no_cursor = false;
        })
      links
  in
  let prepared = Array.map not fresh in
  let steps =
    Array.to_list
      (Array.mapi
         (fun i so ->
           let exec = execute_line so b0 in
           ( so.so_link,
             if fresh.(i) then
               [ String.concat " " [ "PREPARE"; so.so_name; sc.sc_push ]; exec ]
             else [ exec ] ))
         srcs)
  in
  let note, raise_first = first_error () in
  (match exchange ~deadline steps with
  | exception Err e -> note e
  | results ->
      List.iteri
        (fun i ((_, replies, _) as res) ->
          let so = srcs.(i) in
          if fresh.(i) then begin
            match reply_ok res 0 with
            | Ok _ -> ()
            | Error e ->
                prepared.(i) <-
                  (match replies.(0) with Some r -> r.Proto.ok | None -> false);
                note e
          end;
          match reply_ok res (if fresh.(i) then 1 else 0) with
          | Error e -> note e
          | Ok resp -> (
              match parse_reply sc so resp with
              | exception Err e -> note e
              | rows ->
                  let got = List.length rows in
                  so.so_buf <- rows;
                  so.so_depth <- got;
                  if got < b0 then so.so_exhausted <- true))
        results);
  (try raise_first ()
   with Err _ as ex ->
     release_sources ~prepared:(fun i -> prepared.(i)) srcs;
     raise ex);
  srcs

(* ------------------------------------------------------------------ *)
(* Scatter-plan derivation.                                            *)

let no_aggregates select =
  List.for_all (function Ast.Aggregate _ -> false | _ -> true) select

let build_scatter t (tpl : Sql.template) ~k =
  let ast = tpl.Sql.tpl_ast in
  if ast.Ast.group_by <> [] || not (no_aggregates ast.Ast.select) then None
  else
    let finish ~window ~dense ~push_ast ~k' prep =
      let bound = prep.Sql.bound in
      if
        bound.Binder.aggregation <> None
        || bound.Binder.post_sort <> None
        || bound.Binder.post_limit <> None
      then None
      else
        let logical = prep.Sql.planned.Core.Optimizer.query in
        let tables = ast.Ast.from in
        let co_ok =
          match window with
          | Some _ -> List.length tables = 1
          | None ->
              Core.Logical.is_ranking logical
              && Partition.co_partitioned t.co_part ~tables
                   ~joins:
                     (List.map
                        (fun (j : Core.Logical.join_pred) ->
                          ( j.Core.Logical.left_table,
                            j.Core.Logical.left_column,
                            j.Core.Logical.right_table,
                            j.Core.Logical.right_column ))
                        logical.Core.Logical.joins)
        in
        if not co_ok then None
        else
          let schema =
            Core.Plan.schema_of t.co_mirror prep.Sql.planned.Core.Optimizer.plan
          in
          let filter =
            match (window, tables) with
            | Some _, [ t0 ] -> (
                match
                  (Core.Logical.find_relation logical t0).Core.Logical.filter
                with
                | None -> None
                | Some e -> Some (Expr.compile_bool schema e))
            | _ -> None
          in
          Some
            {
              sc_window = window;
              sc_dense = dense;
              sc_push = (Sql.template_of_ast push_ast).Sql.tpl_text;
              sc_k = k';
              sc_prep = prep;
              sc_schema = schema;
              sc_names =
                Array.of_list
                  (List.map Schema.column_name (Schema.columns schema));
              sc_perm = Core.Executor.canonical_perm schema;
              sc_filter = filter;
              sc_tables = tables;
            }
    in
    match ast.Ast.rank_between with
    | Some (lo, hi) -> (
        if ast.Ast.limit <> None || ast.Ast.limit_param then None
        else
          match Sql.prepare_ast t.co_mirror ast with
          | Error _ -> None
          | Ok prep ->
              (* Push the whole prefix window 1..hi with the residual
                 filter stripped: a shard's local rank never exceeds the
                 global rank, so the union of per-shard prefixes contains
                 every globally windowed row; the filter is re-applied
                 after the merged slice, exactly like the single-node
                 Filter-over-window plan. *)
              let push_ast =
                {
                  ast with
                  Ast.select = [ Ast.Star ];
                  where = [];
                  rank_between = Some (1, hi);
                }
              in
              finish ~window:(Some (lo, hi)) ~dense:ast.Ast.rank_dense ~push_ast
                ~k':(Some hi) prep)
    | None -> (
        if ast.Ast.order_by = None then None
        else if not (ast.Ast.limit_param || ast.Ast.limit <> None) then None
        else
          let k0 =
            match k with
            | Some k -> max 1 k
            | None -> ( match tpl.Sql.tpl_inline_k with Some k -> max 1 k | None -> 1)
          in
          match Sql.instantiate tpl ~k:k0 () with
          | Error _ -> None
          | Ok inst -> (
              match Sql.prepare_ast t.co_mirror inst with
              | Error _ -> None
              | Ok prep ->
                  (* Push SELECT * with every filter and join kept (they
                     commute with partitioning) and the limit left as a
                     bind parameter: under hash partitioning any shard
                     could hold all k winners, so k' = k, bound at
                     EXECUTE time. *)
                  let push_ast =
                    {
                      inst with
                      Ast.select = [ Ast.Star ];
                      limit = None;
                      limit_param = true;
                    }
                  in
                  finish ~window:None ~dense:false ~push_ast ~k':(Some k0) prep))

let scatter_of t tpl ~k =
  with_lock t (fun () ->
      let key = (tpl.Sql.tpl_text, t.co_epoch) in
      match Hashtbl.find_opt t.co_scatters key with
      | Some sc -> sc
      | None ->
          let sc = build_scatter t tpl ~k in
          Hashtbl.replace t.co_scatters key sc;
          sc)

(* ------------------------------------------------------------------ *)
(* Scattered executions.                                               *)

let depths_of srcs = Array.map (fun so -> so.so_depth) srcs

let answer_reply ~scattered ~depths ~start (ans : Sql.answer) =
  {
    columns = ans.Sql.columns;
    rows = ans.Sql.rows;
    scores = ans.Sql.scores;
    affected = None;
    scattered;
    depths;
    latency_s = Unix.gettimeofday () -. start;
  }

(* Continuations re-number rank() columns by the absolute cursor offset
   (the projection itself numbers from the start of the batch). *)
let bump_ranks (prep : Sql.prepared) offset (ans : Sql.answer) =
  if offset = 0 then ans
  else
    match prep.Sql.bound.Binder.projection with
    | None -> ans
    | Some targets ->
        let rank_cols =
          List.concat
            (List.mapi
               (fun i (oc, _) ->
                 match oc with Binder.Rank -> [ i ] | _ -> [])
               targets)
        in
        if rank_cols = [] then ans
        else
          {
            ans with
            Sql.rows =
              List.map
                (fun row ->
                  let row = Array.copy row in
                  List.iter
                    (fun j ->
                      match row.(j) with
                      | Value.Int r -> row.(j) <- Value.Int (r + offset)
                      | _ -> ())
                    rank_cols;
                  row)
                ans.Sql.rows;
          }

let run_topk t ses sc ~cursor_name ~k ~deadline ~start =
  with_lock t (fun () ->
      (* A cursor already under the name hands its statement names back
         to its links, so a re-EXECUTE of the same SQL takes the same
         names again and its CLOSEs ride ahead of the EXECUTEs. *)
      (match cursor_name with
      | None -> ()
      | Some name -> (
          match Hashtbl.find_opt ses.ss_gcs name with
          | None -> ()
          | Some old ->
              Hashtbl.remove ses.ss_gcs name;
              release_sources old.gc_srcs));
      let srcs = open_sources t sc ~k ~deadline in
      let rows =
        try gather_pull sc srcs ~deadline k
        with Err _ as ex ->
          release_sources srcs;
          raise ex
      in
      let ans = Sql.project_rows sc.sc_prep sc.sc_schema rows in
      let depths = depths_of srcs in
      (match cursor_name with
      | None -> release_sources srcs
      | Some name ->
          Hashtbl.replace ses.ss_gcs name
            {
              gc_sc = sc;
              gc_srcs = srcs;
              gc_pos = List.length rows;
              gc_epoch = t.co_epoch;
              gc_stats =
                Storage.Catalog.epoch_of_tables t.co_mirror sc.sc_tables;
            });
      answer_reply ~scattered:true ~depths ~start ans)

let dense_slice lo hi rows =
  let rec go d prev acc = function
    | [] -> List.rev acc
    | (tu, s) :: tl ->
        let d =
          match prev with
          | None -> 1
          | Some p -> if Float.compare p s = 0 then d else d + 1
        in
        if d > hi then List.rev acc
        else go d (Some s) (if d >= lo then (tu, s) :: acc else acc) tl
  in
  go 0 None [] rows

let sparse_slice lo hi rows =
  let rec drop k l =
    if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl
  in
  let rec take k l =
    if k <= 0 then []
    else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
  in
  take (hi - lo + 1) (drop (lo - 1) rows)

let run_window t sc ~lo ~hi ~deadline ~start =
  with_lock t (fun () ->
      let n = Array.length t.co_links in
      let depths = Array.make n 0 in
      let all = ref [] in
      let note, raise_first = first_error () in
      let query = "QUERY " ^ sc.sc_push in
      List.iteri
        (fun i ((lk, _, _) as res) ->
          match reply_ok res 0 with
          | Error e -> note e
          | Ok resp -> (
              let so =
                {
                  so_link = lk;
                  so_name = "";
                  so_push = sc.sc_push;
                  so_session = lk.lk_session;
                  so_perm = None;
                  so_cells = [||];
                  so_buf = [];
                  so_depth = 0;
                  so_bound = 0;
                  so_exhausted = true;
                  so_no_cursor = true;
                }
              in
              match parse_reply sc so resp with
              | exception Err e -> note e
              | rows ->
                  depths.(i) <- List.length rows;
                  all :=
                    List.rev_append
                      (List.map (fun (tu, s) -> (tu, s, i)) rows)
                      !all))
        (exchange ~deadline
           (Array.to_list (Array.map (fun lk -> (lk, [ query ])) t.co_links)));
      raise_first ();
      let merged =
        List.stable_sort (row_compare sc) !all
        |> List.map (fun (tu, s, _) -> (tu, s))
      in
      let sliced =
        if sc.sc_dense then dense_slice lo hi merged
        else sparse_slice lo hi merged
      in
      let filtered =
        match sc.sc_filter with
        | None -> sliced
        | Some keep -> List.filter (fun (tu, _) -> keep tu) sliced
      in
      let ans = Sql.project_rows sc.sc_prep sc.sc_schema filtered in
      answer_reply ~scattered:true ~depths ~start ans)

(* ------------------------------------------------------------------ *)
(* DML routing.                                                        *)

let render_value = function
  | Value.Int i -> string_of_int i
  | Value.Float f ->
      if Float.is_nan f then "(0.0/0.0)"
      else if f = Float.infinity then "(1.0/0.0)"
      else if f = Float.neg_infinity then "(0.0-1.0/0.0)"
      else Printf.sprintf "%.17g" f
  | Value.Str s -> "'" ^ s ^ "'"
  | Value.Bool b -> if b then "1" else "0"
  | Value.Null -> "0"

(* Send each link its DML statement in one exchange; every reply must
   carry an affected count. *)
let route_dml ~deadline steps =
  let note, raise_first = first_error () in
  List.iter
    (fun ((lk, _, _) as res) ->
      match reply_ok res 0 with
      | Error e -> note e
      | Ok resp ->
          if not (List.mem_assoc "affected" resp.Proto.fields) then
            note
              (Svc.Exec_error
                 (Printf.sprintf
                    "shard %d: DML route returned no affected count" lk.lk_id)))
    (exchange ~deadline steps);
  raise_first ()

(* Fan one INSERT out: each VALUES row goes to exactly the shard that
   owns it (the mirror-identical coerced tuple decides), re-rendered as
   a per-shard INSERT with round-trip literals. *)
let route_insert t ~deadline table values =
  match Storage.Catalog.find_table t.co_mirror table with
  | None -> ()
  | Some info ->
      let cols = Schema.columns info.Storage.Catalog.tb_schema in
      let n = Array.length t.co_links in
      let buckets = Array.make n [] in
      List.iter
        (fun row ->
          let tu =
            Array.of_list
              (List.map2
                 (fun (c : Schema.column) e -> Sql.constant_value c.Schema.dtype e)
                 cols row)
          in
          let s =
            Partition.assign t.co_part ~table info.Storage.Catalog.tb_schema tu
          in
          let rendered =
            "("
            ^ String.concat ", "
                (List.map render_value (Array.to_list tu))
            ^ ")"
          in
          buckets.(s) <- rendered :: buckets.(s))
        values;
      route_dml ~deadline
        (List.concat
           (Array.to_list
              (Array.mapi
                 (fun s rows ->
                   if rows = [] then []
                   else
                     [
                       ( t.co_links.(s),
                         [
                           Printf.sprintf "QUERY INSERT INTO %s VALUES %s" table
                             (String.concat ", " (List.rev rows));
                         ] );
                     ])
                 buckets)))

let broadcast_dml t ~deadline sql =
  route_dml ~deadline
    (Array.to_list (Array.map (fun lk -> (lk, [ "QUERY " ^ sql ])) t.co_links))

let run_dml t ses ?timeout_s stmt sql ~start =
  (* Mirror first: it is authoritative for the affected count, the
     statistics refresh and the epoch bump that staleness checks see. *)
  match Svc.query ses.ss_sv ?timeout_s sql with
  | Error e -> Error e
  | Ok r ->
      let deadline =
        Unix.gettimeofday ()
        +. Option.value timeout_s
             ~default:
               (Option.value ses.ss_timeout
                  ~default:ses.ss_t.co_config.Svc.default_timeout_s)
      in
      with_lock t (fun () ->
          (match stmt with
          | Ast.Insert { table; values } -> route_insert t ~deadline table values
          | Ast.Delete _ | Ast.Update _ -> broadcast_dml t ~deadline sql
          | Ast.Select _ -> assert false);
          Ok
            {
              columns = [];
              rows = [];
              scores = [];
              affected = r.Svc.affected;
              scattered = false;
              depths = [||];
              latency_s = Unix.gettimeofday () -. start;
            })

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)

let create ?(config = Svc.default_config) ~mirror ~part ~endpoints () =
  {
    co_mirror = mirror;
    co_local = Svc.create ~config mirror;
    co_config = config;
    co_lock =
      Rkutil.Latch.create ~name:"shard.coordinator" ~rank:10
        ~cls:Rkutil.Latch.Long ();
    co_part = part;
    co_links =
      Array.of_list
        (List.mapi
           new_link
           endpoints);
    co_epoch = 0;
    co_gen = 0;
    co_reshard = None;
    co_scatters = Hashtbl.create 16;
  }

let set_reshard t f = t.co_reshard <- Some f

let reconfigure t ~part ~endpoints =
  with_lock t (fun () ->
      Array.iter drop_client t.co_links;
      t.co_part <- part;
      t.co_links <-
        Array.of_list
          (List.mapi
             new_link
             endpoints);
      t.co_epoch <- t.co_epoch + 1;
      Hashtbl.reset t.co_scatters)

let shutdown t =
  with_lock t (fun () -> Array.iter drop_client t.co_links);
  Svc.shutdown t.co_local

let mirror t = t.co_mirror
let local t = t.co_local
let part t = t.co_part
let part_epoch t = t.co_epoch

let endpoints t =
  Array.to_list (Array.map (fun lk -> lk.lk_endpoint) t.co_links)

let open_session t =
  {
    ss_t = t;
    ss_sv = Svc.open_session t.co_local;
    ss_tpls = Hashtbl.create 8;
    ss_gcs = Hashtbl.create 8;
    ss_timeout = None;
  }

let drop_gcursor ses name =
  match Hashtbl.find_opt ses.ss_gcs name with
  | None -> false
  | Some gc ->
      with_lock ses.ss_t (fun () -> release_sources gc.gc_srcs);
      Hashtbl.remove ses.ss_gcs name;
      true

let close_session ses =
  Hashtbl.iter
    (fun _ gc ->
      try with_lock ses.ss_t (fun () -> release_sources gc.gc_srcs)
      with _ -> ())
    ses.ss_gcs;
  Hashtbl.reset ses.ss_gcs;
  Svc.close_session ses.ss_sv

let set_timeout ses timeout_s =
  ses.ss_timeout <- timeout_s;
  Svc.set_timeout ses.ss_sv timeout_s

let session_stats ses = Svc.session_stats ses.ss_sv

let deadline_of ses timeout_s =
  Unix.gettimeofday ()
  +. Option.value timeout_s
       ~default:
         (Option.value ses.ss_timeout
            ~default:ses.ss_t.co_config.Svc.default_timeout_s)

let guard f =
  let r = try f () with Err e -> Error e in
  (* Every public entry point releases everything it took. *)
  Rkutil.Latch.quiesce "coordinator.entry";
  r

let service_reply ~start (r : Svc.reply) =
  {
    columns = r.Svc.columns;
    rows = r.Svc.rows;
    scores = r.Svc.scores;
    affected = r.Svc.affected;
    scattered = false;
    depths = [||];
    latency_s = Unix.gettimeofday () -. start;
  }

let query ses ?timeout_s ?k sql =
  let t = ses.ss_t in
  let start = Unix.gettimeofday () in
  let fallback () =
    Result.map (service_reply ~start) (Svc.query ses.ss_sv ?timeout_s ?k sql)
  in
  match Sqlfront.Parser.parse_statement_result sql with
  | Ok ((Ast.Insert _ | Ast.Delete _ | Ast.Update _) as stmt) ->
      guard (fun () -> run_dml t ses ?timeout_s stmt sql ~start)
  | Ok (Ast.Select _) | Error _ -> (
      match Sql.template_of_sql sql with
      | Error _ -> fallback ()
      | Ok tpl -> (
          match scatter_of t tpl ~k with
          | None -> fallback ()
          | Some sc ->
              guard (fun () ->
                  let deadline = deadline_of ses timeout_s in
                  match sc.sc_window with
                  | Some (lo, hi) ->
                      if k <> None then fallback ()
                      else Ok (run_window t sc ~lo ~hi ~deadline ~start)
                  | None -> (
                      let k_eff =
                        match k with Some k -> Some k | None -> tpl.Sql.tpl_inline_k
                      in
                      match k_eff with
                      | Some k when k >= 1 ->
                          Ok
                            (run_topk t ses sc ~cursor_name:None ~k ~deadline
                               ~start)
                      | _ -> fallback ()))))

let prepare ses ~name sql =
  match Svc.prepare ses.ss_sv ~name sql with
  | Error e -> Error e
  | Ok tpl ->
      Hashtbl.replace ses.ss_tpls name tpl;
      Ok tpl

let execute_prepared ses ?timeout_s ?k name =
  let t = ses.ss_t in
  let start = Unix.gettimeofday () in
  let fallback () =
    Result.map
      (service_reply ~start)
      (Svc.execute_prepared ses.ss_sv ?timeout_s ?k name)
  in
  match Hashtbl.find_opt ses.ss_tpls name with
  | None -> Error (Svc.Unknown_prepared name)
  | Some tpl -> (
      match scatter_of t tpl ~k with
      | None -> fallback ()
      | Some sc ->
          guard (fun () ->
              let deadline = deadline_of ses timeout_s in
              match sc.sc_window with
              | Some (lo, hi) ->
                  if k <> None then fallback ()
                  else begin
                    ignore (drop_gcursor ses name);
                    Ok (run_window t sc ~lo ~hi ~deadline ~start)
                  end
              | None -> (
                  let k_eff =
                    match k with Some k -> Some k | None -> tpl.Sql.tpl_inline_k
                  in
                  match k_eff with
                  | Some k when k >= 1 ->
                      Ok
                        (run_topk t ses sc ~cursor_name:(Some name) ~k ~deadline
                           ~start)
                  | _ -> fallback ())))

let fetch ses ?timeout_s ~name n =
  let t = ses.ss_t in
  let start = Unix.gettimeofday () in
  match Hashtbl.find_opt ses.ss_gcs name with
  | None ->
      Result.map
        (service_reply ~start)
        (Svc.fetch ses.ss_sv ?timeout_s ~name n)
  | Some gc ->
      if n < 1 then Error (Svc.Bind_error "FETCH count must be >= 1")
      else if
        gc.gc_epoch <> t.co_epoch
        || gc.gc_stats
           <> Storage.Catalog.epoch_of_tables t.co_mirror gc.gc_sc.sc_tables
      then begin
        ignore (drop_gcursor ses name);
        Error (Svc.Cursor_stale name)
      end
      else
        guard (fun () ->
            let deadline = deadline_of ses timeout_s in
            with_lock t (fun () ->
                let sc = gc.gc_sc in
                let rows = gather_pull sc gc.gc_srcs ~deadline n in
                let ans =
                  Sql.project_rows sc.sc_prep sc.sc_schema rows
                  |> bump_ranks sc.sc_prep gc.gc_pos
                in
                gc.gc_pos <- gc.gc_pos + List.length rows;
                Ok
                  (answer_reply ~scattered:true ~depths:(depths_of gc.gc_srcs)
                     ~start ans)))

let close_cursor ses name =
  if drop_gcursor ses name then Ok () else Svc.close_cursor ses.ss_sv name

let rank_probe ses ?dense ~table ~column value =
  Svc.rank_probe ses.ss_sv ?dense ~table ~column value

(* ------------------------------------------------------------------ *)
(* EXPLAIN / ANALYZE for distributed plans.                            *)

let gather_plan t sc =
  let order = Core.Plan.order_of sc.sc_prep.Sql.planned.Core.Optimizer.plan in
  let score = Option.map (fun (o : Core.Plan.order) -> o.Core.Plan.expr) order in
  let inputs =
    Array.to_list
      (Array.map
         (fun lk ->
           Core.Plan.Remote_scan
             {
               shard = lk.lk_id;
               endpoint = endpoint_string lk.lk_endpoint;
               sql = sc.sc_push;
               tables = sc.sc_tables;
               score;
               k_bound = sc.sc_k;
             })
         t.co_links)
  in
  Core.Plan.Gather_merge
    {
      inputs;
      score;
      k = (match sc.sc_window with None -> sc.sc_k | Some _ -> None);
    }

let partitioning_line t =
  let scheme_str (tbl, scheme) =
    match scheme with
    | Partition.Hash c -> Printf.sprintf "%s: hash(%s)" tbl c
    | Partition.Score_range { column; _ } -> Printf.sprintf "%s: range(%s)" tbl column
  in
  Printf.sprintf "partitioning: %d shards, epoch %d, %s"
    (Array.length t.co_links) t.co_epoch
    (String.concat ", " (List.map scheme_str t.co_part.Partition.schemes))

let explain ses sql =
  let t = ses.ss_t in
  match Sql.template_of_sql sql with
  | Error _ -> Svc.explain ses.ss_sv sql
  | Ok tpl -> (
      match scatter_of t tpl ~k:None with
      | None -> Svc.explain ses.ss_sv sql
      | Some sc ->
          Ok
            (Format.asprintf "%a@.%s" Core.Plan.pp (gather_plan t sc)
               (partitioning_line t)))

let analyze ses ?k sql =
  let t = ses.ss_t in
  let fallback () =
    Result.map_error
      (fun e -> Svc.Exec_error e)
      (Sql.analyze t.co_mirror sql)
  in
  match Sql.template_of_sql sql with
  | Error _ -> fallback ()
  | Ok tpl -> (
      match scatter_of t tpl ~k with
      | None -> fallback ()
      | Some sc -> (
          match query ses ?k sql with
          | Error e -> Error e
          | Ok r ->
              let header =
                Format.asprintf "%a" Core.Plan.pp (gather_plan t sc)
              in
              let per_shard =
                List.mapi
                  (fun i lk ->
                    Printf.sprintf
                      "  shard %d @ %s: k'=%s observed_depth=%d" i
                      (endpoint_string lk.lk_endpoint)
                      (match sc.sc_k with
                      | Some b -> string_of_int b
                      | None -> "-")
                      (if i < Array.length r.depths then r.depths.(i) else 0))
                  (Array.to_list t.co_links)
              in
              Ok
                (String.concat "\n"
                   ((header :: partitioning_line t :: "gather-remote:"
                     :: per_shard)
                   @ [
                       Printf.sprintf "  merged rows=%d total_depth=%d"
                         (List.length r.rows)
                         (Array.fold_left ( + ) 0 r.depths);
                     ]))))

(* ------------------------------------------------------------------ *)
(* Cluster admin.                                                      *)

let stats t =
  let base = Svc.stats t.co_local in
  (* Sum every integer field of each command's reply over the shards;
     an unreachable shard is skipped. *)
  let sum_over_shards cmds =
    let sums = List.map (fun _ -> (Hashtbl.create 16, ref [])) cmds in
    Array.iter
      (fun lk ->
        match exchange [ (lk, cmds) ] with
        | exception Err _ -> ()
        | [ res ] ->
            List.iteri
              (fun j (sums, order) ->
                match reply_ok res j with
                | Error _ -> ()
                | Ok resp ->
                    List.iter
                      (fun line ->
                        match String.index_opt line '=' with
                        | None -> ()
                        | Some i -> (
                            let key = String.sub line 0 i in
                            let v =
                              String.sub line (i + 1) (String.length line - i - 1)
                            in
                            match int_of_string_opt v with
                            | None -> ()
                            | Some n ->
                                if not (Hashtbl.mem sums key) then
                                  order := key :: !order;
                                Hashtbl.replace sums key
                                  (n
                                  + Option.value (Hashtbl.find_opt sums key)
                                      ~default:0)))
                      resp.Proto.payload)
              sums
        | _ -> ())
      t.co_links;
    List.map
      (fun (sums, order) ->
        List.rev_map (fun key -> (key, string_of_int (Hashtbl.find sums key))) !order)
      sums
  in
  let cluster =
    with_lock t (fun () ->
        (* the coordinator's own link sessions: their prepared statements
           and open cursors show whether scatters clean up after
           themselves *)
        match sum_over_shards [ "STATS"; "STATS SESSION" ] with
        | [ server; session ] ->
            List.map (fun (k, v) -> ("cluster_" ^ k, v)) server
            @ List.map (fun (k, v) -> ("cluster_link_" ^ k, v)) session
        | _ -> [])
  in
  base
  @ [
      ("shards", string_of_int (Array.length t.co_links));
      ("part_epoch", string_of_int t.co_epoch);
    ]
  @ cluster

let shard_list t =
  let n = Array.length t.co_links in
  let counts = Array.make n [] in
  List.iter
    (fun (info : Storage.Catalog.table_info) ->
      let table = info.Storage.Catalog.tb_name in
      let per = Array.make n 0 in
      List.iter
        (fun tu ->
          let s =
            Partition.assign t.co_part ~table info.Storage.Catalog.tb_schema tu
          in
          per.(s) <- per.(s) + 1)
        (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap);
      Array.iteri
        (fun s c -> counts.(s) <- (table, c) :: counts.(s))
        per)
    (Storage.Catalog.tables t.co_mirror);
  Array.to_list
    (Array.mapi
       (fun i lk ->
         Printf.sprintf "shard %d %s %s" i
           (endpoint_string lk.lk_endpoint)
           (String.concat " "
              (List.rev_map
                 (fun (tbl, c) -> Printf.sprintf "%s=%d" tbl c)
                 counts.(i))))
       t.co_links)

let shard_add t path =
  match t.co_reshard with
  | None -> Error "no reshard hook installed (not an in-process cluster)"
  | Some f -> f t path
