(* The four workloads: their data, the statement stream the client sends,
   and the checks that the answers are right.

   Every statement is a line of the server protocol ({!Server.Protocol}),
   generated up front from the seed, so the server sees only generated
   text and the in-process replay parses exactly what the socket run
   sends. *)

type kind = Dashboard | Adhoc | Leaderboard | Shard

let all = [ Dashboard; Adhoc; Leaderboard; Shard ]

let name = function
  | Dashboard -> "dashboard"
  | Adhoc -> "adhoc"
  | Leaderboard -> "leaderboard"
  | Shard -> "shard"

let of_name s = List.find_opt (fun k -> name k = s) all

(* dashboard: 200 heap pages against 512 frames, so the data fits the pool.
   adhoc: 960 heap pages against 256 frames, so it does not.
   leaderboard: one 64k-row table whose single-row UPDATE pays a full
   predicate scan and a full re-analyze.
   shard: a key domain of 200 gives every key many partners, so top-k over
   the hash-partitioned join stops early on each shard. *)
type sizes = { n : int; domain : int; pool : int }

let sizes ~smoke = function
  | Dashboard -> { n = (if smoke then 2000 else 5000); domain = 200; pool = 512 }
  | Adhoc ->
      if smoke then { n = 2000; domain = 1000; pool = 64 }
      else { n = 16000; domain = 8000; pool = 256 }
  | Leaderboard ->
      let n = if smoke then 4000 else 64000 in
      { n; domain = n / 10; pool = 256 }
  | Shard -> { n = (if smoke then 2000 else 16000); domain = 200; pool = 512 }

let tables = function
  | Dashboard | Shard -> [ "A"; "B" ]
  | Adhoc -> [ "A"; "B"; "C" ]
  | Leaderboard -> [ "L" ]

(* Server worker domains; a shard cluster runs one worker per shard. *)
let workers = function Shard -> 1 | Dashboard | Adhoc | Leaderboard -> 2

let shards = 2

(* A generous bound on the statements per second of the client, to size
   its sample buffers up front. *)
let max_rate = function
  | Dashboard -> 16384
  | Shard -> 2048
  | Leaderboard -> 512
  | Adhoc -> 128

(* The data is the same for every seed, as a TPC-H database is the same
   for every query stream; the seed draws the statements. Data drawn from
   the seed changed the work of a dashboard statement by up to 1.7x
   between seeds (16.5 to 28.4 tuples read per row returned over seeds
   1-6), so runs on different seeds measured the data, not the program. *)
let data_seed = 101

let build_catalog kind ~smoke =
  let s = sizes ~smoke kind in
  let cat = Storage.Catalog.create ~pool_frames:s.pool () in
  List.iteri
    (fun i t ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (data_seed + i))
           ~name:t ~n:s.n ~key_domain:s.domain ()))
    (tables kind);
  cat

(* ---- statements ------------------------------------------------------ *)

let join_sql wa wb =
  Printf.sprintf
    "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY %s*A.score + \
     %s*B.score DESC LIMIT ?"
    wa wb

(* The five dashboard templates: three two-table rank joins with different
   weights and two single-table top-k. The shard workload uses the three
   joins. *)
let templates = function
  | Dashboard ->
      [|
        join_sql "0.5" "0.5";
        join_sql "0.3" "0.7";
        join_sql "0.8" "0.2";
        "SELECT A.id FROM A ORDER BY A.score DESC LIMIT ?";
        "SELECT B.id FROM B ORDER BY B.score DESC LIMIT ?";
      |]
  | Shard -> [| join_sql "0.5" "0.5"; join_sql "0.3" "0.7"; join_sql "0.8" "0.2" |]
  | Adhoc | Leaderboard -> [||]

let prepared_name kind i =
  Printf.sprintf "%c%d" (match kind with Shard -> 's' | _ -> 'd') i

let prepares kind =
  Array.to_list (Array.mapi (fun i sql -> (prepared_name kind i, sql)) (templates kind))

let with_k sql k = String.concat (string_of_int k) (String.split_on_char '?' sql)

let dashboard_ks = [ 5; 8; 10; 12; 15; 20 ]
let shard_ks = [ 10; 20; 50; 100 ]
let adhoc_ks = [| 10; 50; 200; 2000 |]
let page = 20

let window_sql lo =
  Printf.sprintf
    "SELECT L.id, L.score FROM L WHERE rank() BETWEEN %d AND %d ORDER BY \
     L.score DESC"
    lo (lo + page - 1)

(* Streams are cycled when a run outlasts them; adhoc's never are, since a
   repeated statement would hit the plan cache. *)
let stream_len = 8192

(* [round] shuffled afresh, repeated to at least [stream_len] statements.
   Every whole round holds each statement kind in the same proportion, so
   runs on different seeds do the same mix of work. *)
let rounds g round =
  Array.concat
    (List.init
       ((stream_len / Array.length round) + 1)
       (fun _ ->
         let r = Array.map (fun f -> f g) round in
         Rkutil.Prng.shuffle g r;
         r))

let execute_line kind t k = Printf.sprintf "EXECUTE %s %d" (prepared_name kind t) k

let adhoc_sql weights k =
  match weights with
  | [ a; b ] ->
      Printf.sprintf
        "QUERY SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY \
         %d*A.score + %d*B.score DESC LIMIT %d"
        a b k
  | [ a; b; c ] ->
      Printf.sprintf
        "QUERY SELECT A.id, B.id, C.id FROM A, B, C WHERE A.key = B.key AND \
         B.key = C.key ORDER BY %d*A.score + %d*B.score + %d*C.score DESC \
         LIMIT %d"
        a b c k
  | _ -> invalid_arg "adhoc_sql"

(* adhoc: one-shot two- and three-way chain joins with integer weights in
   1..99 drawn without replacement, so every template text is new; k
   cycles through values on both sides of k*. Statement [j] is two-way for
   even [j]. *)
let adhoc_stream g ~count =
  let used = Hashtbl.create 4096 in
  let rec fresh arity =
    let w = List.init arity (fun _ -> 1 + Rkutil.Prng.int g 99) in
    if Hashtbl.mem used w then fresh arity
    else begin
      Hashtbl.add used w ();
      w
    end
  in
  Array.init count (fun j ->
      adhoc_sql (fresh (if j mod 2 = 0 then 2 else 3)) adhoc_ks.((j / 2) mod Array.length adhoc_ks))

(* leaderboard: in every five statements, three hot rank-window pages near
   the top, one RANK probe and one single-row score UPDATE. *)
let leaderboard_round ~n =
  let window g = "QUERY " ^ window_sql (1 + Rkutil.Prng.int g 5) in
  [|
    window;
    window;
    window;
    (fun g -> Printf.sprintf "RANK L.score OF %.6f" (Rkutil.Prng.uniform g));
    (fun g ->
      let v = Rkutil.Prng.uniform g in
      Printf.sprintf "QUERY UPDATE L SET score = %.6f WHERE id = %d" v (Rkutil.Prng.int g n));
  |]

let is_write line =
  String.length line > 12 && String.sub line 0 12 = "QUERY UPDATE"

(* The warm-up lines and the measured stream. *)
let streams kind ~smoke ~seed =
  let g = Rkutil.Prng.create ((seed * 7919) + 1000) in
  match kind with
  | Dashboard | Shard ->
      let ks = if kind = Dashboard then dashboard_ks else shard_ks in
      (* Every (template, k) pair once: the warm-up, and the round the
         stream repeats. *)
      let every_pair =
        Array.concat
          (List.init
             (Array.length (templates kind))
             (fun t -> Array.of_list (List.map (execute_line kind t) ks)))
      in
      (every_pair, rounds g (Array.map (fun l _ -> l) every_pair))
  | Adhoc ->
      (* The warm-up's weights, 100, are never drawn, so it leaves nothing
         in the plan cache the stream could hit, and it costs the same on
         every seed. *)
      ( [| adhoc_sql [ 100; 100 ] 200; adhoc_sql [ 100; 100; 100 ] 200 |],
        adhoc_stream g ~count:2000 )
  | Leaderboard ->
      ( [| "QUERY " ^ window_sql 1; "RANK L.score OF 0.5" |],
        rounds g (leaderboard_round ~n:(sizes ~smoke kind).n) )

(* Which replies the harness keeps to check after the window: every
   [k]-th statement, [k] coprime to the lengths of the rounds. *)
let keep_reply kind i =
  match kind with
  | Dashboard | Shard -> i mod 23 = 0
  | Adhoc -> i mod 7 = 0 && i < 7 * 12
  | Leaderboard -> false

(* ---- checks ---------------------------------------------------------- *)

let scores_of_reply (r : Server.Protocol.response) =
  (* Payload: a column-header line, then one line per row whose last cell
     is [score=<f>]. *)
  match r.Server.Protocol.payload with
  | [] -> []
  | _header :: rows ->
      List.map
        (fun row ->
          let cells = String.split_on_char '\t' row in
          match Server.Protocol.parse_score `Text (List.nth cells (List.length cells - 1)) with
          | Some s -> s
          | None -> failwith ("reply row without a score: " ^ row))
        rows

(* Text replies print scores with six decimals; the shard check also
   allows the float re-association jitter the shard bench allows. *)
let close a b =
  Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let same_scores got want =
  List.length got = List.length want && List.for_all2 close got want

let field (r : Server.Protocol.response) k = List.assoc_opt k r.Server.Protocol.fields

(* The check made on every reply as it arrives: an UPDATE by id touches
   exactly one row. *)
let check_reply line r =
  if is_write line && field r "affected" <> Some "1" then
    Some ("UPDATE did not affect one row: " ^ line)
  else None

let sql_of_line kind line =
  match Server.Protocol.parse_command line with
  | Ok (Server.Protocol.Query sql) -> sql
  | Ok (Server.Protocol.Execute { name = p; k = Some k }) ->
      let i = int_of_string (String.sub p 1 (String.length p - 1)) in
      with_k (templates kind).(i) k
  | _ -> failwith ("no SQL in statement " ^ line)

let direct_scores cat sql =
  match Sqlfront.Sql.query cat sql with
  | Ok a -> a.Sqlfront.Sql.scores
  | Error e -> failwith ("direct execution failed: " ^ e)

let check_reads kind cat kept =
  let memo = Hashtbl.create 64 in
  List.filter_map
    (fun (line, reply) ->
      let sql = sql_of_line kind line in
      let want =
        match Hashtbl.find_opt memo sql with
        | Some w -> w
        | None ->
            let w = direct_scores cat sql in
            Hashtbl.add memo sql w;
            w
      in
      if same_scores (scores_of_reply reply) want then None
      else Some ("scores differ from direct execution: " ^ line))
    kept

(* leaderboard, after the window: the top window equals the
   drain-sort-slice plan; RANK probes equal a full-scan count; no row was
   lost or duplicated. *)
let check_leaderboard cat ~n ~request =
  let errs = ref [] in
  let fail m = errs := m :: !errs in
  let score = Relalg.Expr.col ~relation:"L" "score" in
  let sorted =
    (Core.Executor.run cat
       (Core.Plan.Rank_index_scan
          { table = "L"; index = None; score; lo = 1; hi = page; dense = false }))
      .Core.Executor.rows
  in
  if not (same_scores (scores_of_reply (request ("QUERY " ^ window_sql 1))) (List.map snd sorted))
  then fail "final rank window differs from drain-sort-slice";
  let rows =
    (Core.Executor.run cat (Core.Plan.Table_scan { table = "L" })).Core.Executor.rows
  in
  if List.length rows <> n then
    fail (Printf.sprintf "row count %d, expected %d" (List.length rows) n);
  let col =
    Option.get
      (Relalg.Schema.index_of (Storage.Catalog.table cat "L").Storage.Catalog.tb_schema
         ~relation:"L" "score")
  in
  List.iter
    (fun v ->
      let text = Printf.sprintf "%.6f" v in
      let v = float_of_string text in
      let above =
        List.fold_left
          (fun acc (tu, _) ->
            match tu.(col) with
            | Relalg.Value.Float s when s > v -> acc + 1
            | _ -> acc)
          0 rows
      in
      let r = request ("RANK L.score OF " ^ text) in
      if field r "rank" <> Some (string_of_int (above + 1)) || field r "of" <> Some (string_of_int n)
      then fail ("RANK probe differs from a full-scan count at " ^ text))
    [ 0.05; 0.5; 0.95 ];
  !errs

let verify kind ~smoke cat ~request kept =
  match kind with
  | Dashboard | Adhoc | Shard -> check_reads kind cat kept
  | Leaderboard -> check_leaderboard cat ~n:(sizes ~smoke kind).n ~request
