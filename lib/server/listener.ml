type endpoint = Unix_socket of string | Tcp of string * int

let pp_endpoint fmt = function
  | Unix_socket path -> Format.fprintf fmt "unix:%s" path
  | Tcp (host, port) -> Format.fprintf fmt "tcp:%s:%d" host port

type t = {
  svc : Service.t;
  listener : Unix.file_descr;
  endpoint : endpoint;
  m : Rkutil.Latch.t;
  stopped_cond : Condition.t;
  dispatching : int Atomic.t;
      (* connection threads currently inside a command (dispatch + reply
         send); graceful stop waits for this to reach zero so replies in
         flight reach the socket before it is severed *)
  mutable stopped : bool;
  mutable conns : Unix.file_descr list;
  mutable accept_thread : Thread.t option;
}

let err_of e =
  Protocol.err_response ~code:(Service.error_code e) (Service.error_message e)

let max_line_bytes = 65536

(* Read one newline-terminated command of at most [max_line_bytes] bytes.
   An overlong line is drained through its newline and reported as
   [`Overflow] — the connection survives and stays framed, it just loses
   that one command. Unbounded [input_line] would instead buffer whatever
   a hostile client cares to send. *)
let read_line_bounded ic =
  let buf = Buffer.create 256 in
  let rec drain () =
    match input_char ic with
    | exception End_of_file -> `Overflow
    | '\n' -> `Overflow
    | _ -> drain ()
  in
  let rec go n =
    match input_char ic with
    | exception End_of_file ->
        if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
        if n >= max_line_bytes then drain ()
        else begin
          Buffer.add_char buf c;
          go (n + 1)
        end
  in
  go 0

(* Commands return the response plus a post-action for the connection
   loop: keep going, hang up, or stop the whole server. [codec] is the
   connection's row-rendering codec (the WIRE verb flips it). *)
let dispatch svc session ~codec cmd =
  match cmd with
  | Protocol.Ping -> (Protocol.ok_response ~fields:[ ("pong", "1") ] [], `Keep)
  | Protocol.Prepare { name; sql } -> (
      match Service.prepare session ~name sql with
      | Ok tpl ->
          ( Protocol.ok_response
              ~fields:[ ("prepared", name) ]
              [ tpl.Sqlfront.Sql.tpl_text ],
            `Keep )
      | Error e -> (err_of e, `Keep))
  | Protocol.Execute { name; k } -> (
      match Service.execute_prepared session ?k name with
      | Ok reply -> (Protocol.render_reply ~codec:!codec reply, `Keep)
      | Error e -> (err_of e, `Keep))
  | Protocol.Fetch { name; n } -> (
      match Service.fetch session ~name n with
      | Ok reply -> (Protocol.render_reply ~codec:!codec reply, `Keep)
      | Error e -> (err_of e, `Keep))
  | Protocol.Close name -> (
      match Service.close_cursor session name with
      | Ok () -> (Protocol.ok_response ~fields:[ ("closed", name) ] [], `Keep)
      | Error e -> (err_of e, `Keep))
  | Protocol.Query sql -> (
      match Service.query session sql with
      | Ok reply -> (Protocol.render_reply ~codec:!codec reply, `Keep)
      | Error e -> (err_of e, `Keep))
  | Protocol.Explain sql -> (
      match Service.explain session sql with
      | Ok text ->
          let lines =
            String.split_on_char '\n' text
            |> List.filter (fun l -> String.trim l <> "")
          in
          (Protocol.ok_response lines, `Keep)
      | Error e -> (err_of e, `Keep))
  | Protocol.Rank { table; column; value; dense } -> (
      match Service.rank_probe session ~dense ~table ~column value with
      | Ok (rank, total) ->
          let fields =
            (match rank with
            | Some r -> [ ("rank", string_of_int r) ]
            | None -> [ ("rank", "none") ])
            @ [ ("of", string_of_int total) ]
            @ (if dense then [ ("dense", "1") ] else [])
          in
          (Protocol.ok_response ~fields [], `Keep)
      | Error e -> (err_of e, `Keep))
  | Protocol.Stats scope ->
      let fields =
        match scope with
        | `Server -> Service.stats svc
        | `Session -> Service.session_stats session
      in
      let lines = List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) fields in
      (Protocol.ok_response lines, `Keep)
  | Protocol.Wire c ->
      codec := c;
      ( Protocol.ok_response
          ~fields:[ ("wire", match c with `Text -> "text" | `Hex -> "hex") ]
          [],
        `Keep )
  | Protocol.Timeout t ->
      Service.set_timeout session t;
      ( Protocol.ok_response ~fields:[ ("timeout", Protocol.timeout_value t) ] [],
        `Keep )
  | Protocol.Shard_add _ | Protocol.Shard_list ->
      ( Protocol.err_response ~code:"SHARD"
          "not a coordinator: SHARD verbs need rankopt serve --shards",
        `Keep )
  | Protocol.Quit -> (Protocol.ok_response ~fields:[ ("bye", "1") ] [], `Close)
  | Protocol.Shutdown ->
      (Protocol.ok_response ~fields:[ ("shutdown", "1") ] [], `Shutdown)

let send oc response =
  (* Socket writes can block on a slow client: never under a latch. *)
  Rkutil.Latch.blocking "listener.send";
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (Protocol.render response);
  flush oc

let remove_conn t fd =
  Rkutil.Latch.protect t.m (fun () ->
      t.conns <- List.filter (fun c -> c != fd) t.conns)

(* Graceful stop: no new connections, no new statements, but everything
   already admitted delivers its reply before the sockets are severed.

   1. close the listening socket (accept loop exits);
   2. [Service.begin_drain]: later statements answer ERR SHUTDOWN while
      admitted ones keep their workers;
   3. wait until no statement is in flight and no connection thread is
      mid-command (reply bytes reach the socket);
   4. sever the now-idle connections so their handler threads unwind and
      close their sessions (parked cursors are closed there);
   5. wait for the sessions to close, then stop the worker pool. *)
let rec stop t =
  let proceed =
    Rkutil.Latch.protect t.m (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if proceed then begin
    (* shutdown(2) before close: close alone does not wake the accept
       thread blocked in accept(2). *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    Service.begin_drain t.svc;
    ignore (Service.drain ~timeout_s:5.0 t.svc);
    Rkutil.Latch.blocking "listener.drain";
    let grace = Unix.gettimeofday () +. 5.0 in
    while
      (Atomic.get t.dispatching > 0 || Service.inflight t.svc > 0)
      && Unix.gettimeofday () < grace
    do
      Unix.sleepf 0.002
    done;
    let conns =
      Rkutil.Latch.protect t.m (fun () ->
          let conns = t.conns in
          t.conns <- [];
          conns)
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    let grace = Unix.gettimeofday () +. 2.0 in
    while Service.sessions t.svc > 0 && Unix.gettimeofday () < grace do
      Unix.sleepf 0.002
    done;
    Service.shutdown t.svc;
    (match t.endpoint with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    Rkutil.Latch.protect t.m (fun () -> Condition.broadcast t.stopped_cond)
  end

and handle_conn t fd =
  let session = Service.open_session t.svc in
  let codec = ref `Text in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let shutdown_requested = ref false in
  (try
     let quit = ref false in
     while not !quit do
       match read_line_bounded ic with
       | `Eof -> quit := true
       | `Overflow ->
           send oc
             (Protocol.err_response ~code:"PROTOCOL"
                (Printf.sprintf "command exceeds %d bytes" max_line_bytes))
       | `Line line when String.trim line = "" -> ()
       | `Line line -> (
           match Protocol.parse_command line with
           | Error msg -> send oc (Protocol.err_response ~code:"PROTOCOL" msg)
           | Ok cmd -> (
               Atomic.incr t.dispatching;
               let response, action =
                 Fun.protect
                   ~finally:(fun () -> Atomic.decr t.dispatching)
                   (fun () ->
                     let r = dispatch t.svc session ~codec cmd in
                     send oc (fst r);
                     r)
               in
               ignore (response : Protocol.response);
               (* Between commands a connection thread holds nothing. *)
               Rkutil.Latch.quiesce "listener.command";
               match action with
               | `Keep -> ()
               | `Close -> quit := true
               | `Shutdown ->
                   shutdown_requested := true;
                   quit := true))
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  Service.close_session session;
  remove_conn t fd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !shutdown_requested then stop t

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error _ -> ()  (* listener closed: stopping *)
    | exception Sys_error _ -> ()
    | fd, _addr ->
        let admitted =
          Rkutil.Latch.protect t.m (fun () ->
              if t.stopped then false
              else begin
                t.conns <- fd :: t.conns;
                true
              end)
        in
        if admitted then
          ignore (Thread.create (fun () -> handle_conn t fd) ())
        else (try Unix.close fd with Unix.Unix_error _ -> ());
        loop ()
  in
  loop ()

let start ?config endpoint cat =
  (* A peer that hangs up mid-reply must fail that connection's write with
     EPIPE (swallowed by [handle_conn]), not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener, sockaddr =
    match endpoint with
    | Unix_socket path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
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
      svc = Service.create ?config cat;
      listener;
      endpoint;
      m = Rkutil.Latch.create ~name:"server.listener" ~rank:12 ();
      stopped_cond = Condition.create ();
      dispatching = Atomic.make 0;
      stopped = false;
      conns = [];
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let service t = t.svc

let wait t =
  Rkutil.Latch.lock t.m;
  while not t.stopped do
    Rkutil.Latch.wait t.stopped_cond t.m
  done;
  Rkutil.Latch.unlock t.m;
  match t.accept_thread with None -> () | Some th -> Thread.join th
