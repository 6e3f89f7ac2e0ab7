module Proto = Server.Protocol
module L = Server.Listener

type t = {
  fr_cluster : Cluster.t;
  fr_listener : Unix.file_descr;
  fr_endpoint : L.endpoint;
  fr_m : Rkutil.Latch.t;
  fr_stopped_cond : Condition.t;
  mutable fr_stopped : bool;
  mutable fr_conns : Unix.file_descr list;
  mutable fr_accept : Thread.t option;
}

let err_of e =
  Proto.err_response ~code:(Server.Service.error_code e)
    (Server.Service.error_message e)

(* Same wire shape as the single-node reply, plus the scatter fields. *)
let render_coord_reply ~codec (r : Coordinator.reply) =
  let fields =
    [
      ("scattered", if r.Coordinator.scattered then "1" else "0");
      ("latency_ms", Proto.latency_ms r.Coordinator.latency_s);
    ]
    @
    if r.Coordinator.scattered then
      [
        ( "depths",
          String.concat ","
            (Array.to_list (Array.map string_of_int r.Coordinator.depths)) );
      ]
    else []
  in
  match r.Coordinator.affected with
  | Some n -> Proto.ok_response ~fields:(("affected", string_of_int n) :: fields) []
  | None ->
      let header =
        if r.Coordinator.columns = [] then []
        else [ String.concat "\t" r.Coordinator.columns ]
      in
      let rows = Proto.render_rows codec r.Coordinator.rows r.Coordinator.scores in
      Proto.ok_response
        ~fields:(("rows", string_of_int (List.length rows)) :: fields)
        (header @ rows)

let dispatch cluster session ~codec cmd =
  let coord = Cluster.coordinator cluster in
  match cmd with
  | Proto.Ping -> (Proto.ok_response ~fields:[ ("pong", "1") ] [], `Keep)
  | Proto.Prepare { name; sql } -> (
      match Coordinator.prepare session ~name sql with
      | Ok tpl ->
          ( Proto.ok_response
              ~fields:[ ("prepared", name) ]
              [ tpl.Sqlfront.Sql.tpl_text ],
            `Keep )
      | Error e -> (err_of e, `Keep))
  | Proto.Execute { name; k } -> (
      match Coordinator.execute_prepared session ?k name with
      | Ok reply -> (render_coord_reply ~codec:!codec reply, `Keep)
      | Error e -> (err_of e, `Keep))
  | Proto.Fetch { name; n } -> (
      match Coordinator.fetch session ~name n with
      | Ok reply -> (render_coord_reply ~codec:!codec reply, `Keep)
      | Error e -> (err_of e, `Keep))
  | Proto.Close name -> (
      match Coordinator.close_cursor session name with
      | Ok () -> (Proto.ok_response ~fields:[ ("closed", name) ] [], `Keep)
      | Error e -> (err_of e, `Keep))
  | Proto.Query sql -> (
      match Coordinator.query session sql with
      | Ok reply -> (render_coord_reply ~codec:!codec reply, `Keep)
      | Error e -> (err_of e, `Keep))
  | Proto.Explain sql -> (
      match Coordinator.explain session sql with
      | Ok text ->
          let lines =
            String.split_on_char '\n' text
            |> List.filter (fun l -> String.trim l <> "")
          in
          (Proto.ok_response lines, `Keep)
      | Error e -> (err_of e, `Keep))
  | Proto.Rank { table; column; value; dense } -> (
      match Coordinator.rank_probe session ~dense ~table ~column value with
      | Ok (rank, total) ->
          let fields =
            (match rank with
            | Some r -> [ ("rank", string_of_int r) ]
            | None -> [ ("rank", "none") ])
            @ [ ("of", string_of_int total) ]
            @ (if dense then [ ("dense", "1") ] else [])
          in
          (Proto.ok_response ~fields [], `Keep)
      | Error e -> (err_of e, `Keep))
  | Proto.Stats scope ->
      let fields =
        match scope with
        | `Server -> Coordinator.stats coord
        | `Session -> Coordinator.session_stats session
      in
      let lines = List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) fields in
      (Proto.ok_response lines, `Keep)
  | Proto.Wire c ->
      codec := c;
      ( Proto.ok_response
          ~fields:[ ("wire", match c with `Text -> "text" | `Hex -> "hex") ]
          [],
        `Keep )
  | Proto.Timeout t ->
      Coordinator.set_timeout session t;
      (Proto.ok_response ~fields:[ ("timeout", Proto.timeout_value t) ] [], `Keep)
  | Proto.Shard_list ->
      let lines = Coordinator.shard_list coord in
      (Proto.ok_response lines, `Keep)
  | Proto.Shard_add path -> (
      match Coordinator.shard_add coord path with
      | Ok () ->
          ( Proto.ok_response
              ~fields:
                [
                  ("shards", string_of_int (Cluster.n_shards cluster));
                  ( "part_epoch",
                    string_of_int (Coordinator.part_epoch coord) );
                ]
              [],
            `Keep )
      | Error msg -> (Proto.err_response ~code:"SHARD" msg, `Keep))
  | Proto.Quit -> (Proto.ok_response ~fields:[ ("bye", "1") ] [], `Close)
  | Proto.Shutdown ->
      (Proto.ok_response ~fields:[ ("shutdown", "1") ] [], `Shutdown)

let send oc response =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (Proto.render response);
  flush oc

let remove_conn t fd =
  Rkutil.Latch.protect t.fr_m (fun () ->
      t.fr_conns <- List.filter (fun c -> c != fd) t.fr_conns)

let rec stop t =
  let to_close =
    Rkutil.Latch.protect t.fr_m (fun () ->
        if t.fr_stopped then None
        else begin
          t.fr_stopped <- true;
          let conns = t.fr_conns in
          t.fr_conns <- [];
          Some conns
        end)
  in
  match to_close with
  | None -> ()
  | Some conns ->
      (try Unix.shutdown t.fr_listener Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      (try Unix.close t.fr_listener with Unix.Unix_error _ -> ());
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        conns;
      (match t.fr_endpoint with
      | L.Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | L.Tcp _ -> ());
      Rkutil.Latch.protect t.fr_m (fun () -> Condition.broadcast t.fr_stopped_cond)

and handle_conn t fd =
  let session = Coordinator.open_session (Cluster.coordinator t.fr_cluster) in
  let codec = ref `Text in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let shutdown_requested = ref false in
  (try
     let quit = ref false in
     while not !quit do
       match L.read_line_bounded ic with
       | `Eof -> quit := true
       | `Overflow ->
           send oc
             (Proto.err_response ~code:"PROTOCOL"
                (Printf.sprintf "command exceeds %d bytes" L.max_line_bytes))
       | `Line line when String.trim line = "" -> ()
       | `Line line -> (
           match Proto.parse_command line with
           | Error msg -> send oc (Proto.err_response ~code:"PROTOCOL" msg)
           | Ok cmd -> (
               let response, action = dispatch t.fr_cluster session ~codec cmd in
               send oc response;
               match action with
               | `Keep -> ()
               | `Close -> quit := true
               | `Shutdown ->
                   shutdown_requested := true;
                   quit := true))
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try Coordinator.close_session session with _ -> ());
  remove_conn t fd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !shutdown_requested then stop t

let accept_loop t =
  let rec loop () =
    match Unix.accept t.fr_listener with
    | exception Unix.Unix_error _ -> ()
    | exception Sys_error _ -> ()
    | fd, _addr ->
        let admitted =
          Rkutil.Latch.protect t.fr_m (fun () ->
              if t.fr_stopped then false
              else begin
                t.fr_conns <- fd :: t.fr_conns;
                true
              end)
        in
        if admitted then ignore (Thread.create (fun () -> handle_conn t fd) ())
        else (try Unix.close fd with Unix.Unix_error _ -> ());
        loop ()
  in
  loop ()

let start cluster endpoint =
  let listener, sockaddr =
    match endpoint with
    | L.Unix_socket path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | L.Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (fd, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  (try Unix.bind listener sockaddr
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listener 16;
  let t =
    {
      fr_cluster = cluster;
      fr_listener = listener;
      fr_endpoint = endpoint;
      fr_m = Rkutil.Latch.create ~name:"shard.frontend" ~rank:14 ();
      fr_stopped_cond = Condition.create ();
      fr_stopped = false;
      fr_conns = [];
      fr_accept = None;
    }
  in
  t.fr_accept <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  Rkutil.Latch.lock t.fr_m;
  while not t.fr_stopped do
    Rkutil.Latch.wait t.fr_stopped_cond t.fr_m
  done;
  Rkutil.Latch.unlock t.fr_m;
  match t.fr_accept with None -> () | Some th -> Thread.join th
