(* The measured run: a workload behind a real socket server, driven
   closed-loop by one client that holds one connection and sends its next
   statement only when the previous reply has arrived. *)

type server =
  | Single of Server.Listener.t
  | Cluster of Shard.Cluster.t * Shard.Frontend.t

type state = {
  server : server;
  cat : Storage.Catalog.t;  (* shard: the cluster's unpartitioned mirror *)
  conn : Server.Client.t;
  lines : string array;  (* the measured stream *)
}

let ok_or_fail line = function
  | Ok (r : Server.Protocol.response) when r.Server.Protocol.ok -> r
  | Ok r ->
      failwith
        (Printf.sprintf "%s: ERR %s %s" line r.Server.Protocol.code
           r.Server.Protocol.message)
  | Error e -> failwith (line ^ ": " ^ e)

let request conn line = ok_or_fail line (Server.Client.request conn line)

(* Set-up, the part [setup_s] times: build the catalog, start the server
   (a shard cluster behind its front end for [Shard]), connect the client,
   PREPARE, and warm the buffer pool and plan cache. Sockets live under
   [dir], a relative path, so their names stay short wherever the checkout
   is. *)
let setup kind ~smoke ~seed ~dir ~gen =
  let cat = Mix.build_catalog kind ~smoke in
  let ep =
    Server.Listener.Unix_socket
      (Filename.concat dir (Printf.sprintf "server%d.sock" gen))
  in
  let config =
    { Server.Service.default_config with workers = Mix.workers kind }
  in
  let server =
    match kind with
    | Mix.Shard ->
        let cdir = Filename.concat dir (Printf.sprintf "cluster%d" gen) in
        Unix.mkdir cdir 0o700;
        let cl = Shard.Cluster.start ~config ~dir:cdir ~n:Mix.shards cat in
        Cluster (cl, Shard.Frontend.start cl ep)
    | Mix.Dashboard | Mix.Adhoc | Mix.Leaderboard ->
        Single (Server.Listener.start ~config ep cat)
  in
  let conn = Server.Client.connect ep in
  List.iter
    (fun (name, sql) -> ignore (request conn (Printf.sprintf "PREPARE %s %s" name sql)))
    (Mix.prepares kind);
  let warm, lines = Mix.streams kind ~smoke ~seed in
  Array.iter (fun l -> ignore (request conn l)) warm;
  { server; cat; conn; lines }

let teardown st =
  Server.Client.close st.conn;
  match st.server with
  | Single l -> Server.Listener.stop l
  | Cluster (cl, fe) ->
      Shard.Frontend.stop fe;
      Shard.Cluster.stop cl

(* What the client saw during the window. *)
type client = {
  lat : Num.Samples.t;  (* round trip, ms, successful statements *)
  read_lat : Num.Samples.t;
  write_lat : Num.Samples.t;
  service_ms : Num.Samples.t;  (* the reply's latency_ms header *)
  wire_us : Num.Samples.t;  (* round trip minus latency_ms *)
  mutable sent : int;
  mutable refused : int;  (* ERR replies and transport failures *)
  mutable messages : string list;  (* the first few refusals *)
  mutable kept : (string * Server.Protocol.response) list;
  mutable n_kept : int;
  mutable bad : string list;  (* replies that failed their own check *)
  mutable reoptimized : int;
  mutable rows_pulled : int;  (* shard: sum of the depths= header *)
  mutable depth_max : int;
  mutable scattered : int;
}

let new_client kind ~seconds =
  let cap = int_of_float (seconds *. float (Mix.max_rate kind)) in
  let split = if kind = Mix.Leaderboard then cap else 1 in
  {
    lat = Num.Samples.create cap;
    read_lat = Num.Samples.create split;
    write_lat = Num.Samples.create split;
    service_ms = Num.Samples.create cap;
    wire_us = Num.Samples.create cap;
    sent = 0;
    refused = 0;
    messages = [];
    kept = [];
    n_kept = 0;
    bad = [];
    reoptimized = 0;
    rows_pulled = 0;
    depth_max = 0;
    scattered = 0;
  }

let record kind r line ms (resp : Server.Protocol.response) =
  let f = Mix.field resp in
  Num.Samples.add r.lat ms;
  if kind = Mix.Leaderboard then
    Num.Samples.add (if Mix.is_write line then r.write_lat else r.read_lat) ms;
  (match Option.bind (f "latency_ms") float_of_string_opt with
  | Some s ->
      Num.Samples.add r.service_ms s;
      Num.Samples.add r.wire_us (1000.0 *. (ms -. s))
  | None -> ());
  if f "reoptimized" = Some "1" then r.reoptimized <- r.reoptimized + 1;
  match (kind, f "depths") with
  | Mix.Shard, Some d ->
      let ds = List.map int_of_string (String.split_on_char ',' d) in
      r.scattered <- r.scattered + 1;
      r.rows_pulled <- r.rows_pulled + List.fold_left ( + ) 0 ds;
      r.depth_max <- List.fold_left max r.depth_max ds
  | _ -> ()

(* Replies kept for checking; a bound keeps the run's memory independent
   of its throughput. *)
let max_kept = 300

type window = {
  c : client;
  elapsed_s : float;
  stats : (string * string) list;  (* the server's STATS after the window *)
}

let drive kind st ~seconds =
  let r = new_client kind ~seconds in
  let start = Num.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let i = ref 0 and broken = ref false in
  while (not !broken) && Num.now_ns () < deadline do
    let line = st.lines.(!i mod Array.length st.lines) in
    let t0 = Num.now_ns () in
    let resp = Server.Client.request st.conn line in
    let ms = float (Num.now_ns () - t0) /. 1e6 in
    r.sent <- r.sent + 1;
    (match resp with
    | Ok resp when resp.Server.Protocol.ok ->
        record kind r line ms resp;
        Option.iter (fun m -> r.bad <- m :: r.bad) (Mix.check_reply line resp);
        if r.n_kept < max_kept && Mix.keep_reply kind !i then begin
          r.kept <- (line, resp) :: r.kept;
          r.n_kept <- r.n_kept + 1
        end
    | Ok resp ->
        r.refused <- r.refused + 1;
        if r.refused <= 5 then
          r.messages <- (resp.Server.Protocol.code ^ " " ^ resp.Server.Protocol.message) :: r.messages
    | Error e ->
        r.refused <- r.refused + 1;
        r.messages <- e :: r.messages;
        broken := true);
    incr i
  done;
  let elapsed_s = float (Num.now_ns () - start) /. 1e9 in
  let stats =
    List.filter_map
      (fun l ->
        match String.index_opt l '=' with
        | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> None)
      (request st.conn "STATS").Server.Protocol.payload
  in
  { c = r; elapsed_s; stats }

(* ---- the run ---------------------------------------------------------- *)

(* Set-up is repeated and its median reported, so that one slow set-up
   does not decide [setup_s]; the window runs on the last one. *)
let setups = 9

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : Num.metric list;  (* the gated end-to-end metrics *)
  extra : (string * float) list;  (* workload-specific, informational *)
  problems : string list;  (* failed answer checks *)
  errors : string list;  (* ERR replies and transport failures *)
}

let run kind ~smoke ~seed ~seconds ~dir =
  let setup_s = Array.make setups 0.0 in
  let rec go g =
    let t0 = Num.now_ns () in
    let st = setup kind ~smoke ~seed ~dir ~gen:g in
    setup_s.(g) <- float (Num.now_ns () - t0) /. 1e9;
    if g + 1 < setups then begin
      teardown st;
      Gc.full_major ();
      go (g + 1)
    end
    else st
  in
  let st = go 0 in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  let w = drive kind st ~seconds in
  let r = w.c in
  let sorted = Num.Samples.sorted in
  let lat = sorted r.lat in
  let ok = Array.length lat in
  let problems =
    (if ok = 0 then [ "no statement completed in the window" ] else [])
    @ List.rev r.bad
    @ Mix.verify kind ~smoke st.cat ~request:(request st.conn) (List.rev r.kept)
  in
  let e2e =
    [
      { Num.name = "throughput_ops_s"; value = float ok /. w.elapsed_s; unit_ = "1/s" };
      { name = "p50_ms"; value = Num.percentile lat 0.50; unit_ = "ms" };
      { name = "p95_ms"; value = Num.percentile lat 0.95; unit_ = "ms" };
      { name = "setup_s"; value = Num.median setup_s; unit_ = "s" };
      { name = "peak_rss_mb"; value = Num.peak_rss_mb (); unit_ = "MiB" };
    ]
  in
  let opt name xs p = if Num.beyond xs p >= 10 then [ (name, Num.percentile xs p) ] else [] in
  let stat k = Option.bind (List.assoc_opt k w.stats) float_of_string_opt in
  let extra =
    [
      ("samples", float ok);
      ("failed_frac", float r.refused /. float (max 1 r.sent));
      ("server.service_ms", Num.percentile (sorted r.service_ms) 0.5);
      ("server.wire_us", Num.percentile (sorted r.wire_us) 0.5);
      ("server.reoptimized_frac", float r.reoptimized /. float (max 1 ok));
    ]
    @ opt "p99_ms" lat 0.99
    @ List.filter_map
        (fun (name, k) -> Option.map (fun v -> (name, v)) (stat k))
        [
          ("server.plan_cache.hit_ratio", "cache_hit_rate");
          ("server.plan_cache.stale", "cache_invalidations");
          ("server.plan_cache.interval_miss", "cache_reopt_rebinds");
        ]
    @ (match kind with
      | Mix.Leaderboard ->
          let reads = sorted r.read_lat and writes = sorted r.write_lat in
          opt "read_p95_ms" reads 0.95
          @ [ ("write_p50_ms", Num.percentile writes 0.5); ("write_samples", float (Array.length writes)) ]
          @ opt "write_p95_ms" writes 0.95
      | Mix.Shard ->
          [
            ("shard.rows_pulled_per_stmt", float r.rows_pulled /. float (max 1 r.scattered));
            ("shard.depth_max", float r.depth_max);
            ("shard.scattered_frac", float r.scattered /. float (max 1 ok));
          ]
      | Mix.Dashboard | Mix.Adhoc -> [])
  in
  { correct = problems = []; attempted = r.sent; failed = r.refused; e2e; extra; problems;
    errors = List.rev r.messages }
