type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect endpoint =
  let fd, addr =
    match endpoint with
    | Listener.Unix_socket path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Listener.Tcp (host, port) ->
        ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Socket I/O: must never run while a Short-class latch is held (the
   coordinator's Long-class lock legitimately covers it). *)
let send t lines =
  Rkutil.Latch.blocking "client.rpc";
  match
    List.iter
      (fun line ->
        output_string t.oc line;
        output_char t.oc '\n')
      lines;
    flush t.oc
  with
  | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection closed"
  | () -> Ok ()

let receive t =
  Rkutil.Latch.blocking "client.rpc";
  match input_line t.ic with
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
      Error "connection closed"
  | header -> (
      match Protocol.parse_header header with
      | Error e -> Error e
      | Ok response -> (
          let n = Protocol.payload_count header in
          match List.init n (fun _ -> input_line t.ic) with
          | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
              Error "connection closed mid-payload"
          | payload -> Ok { response with Protocol.payload }))

let request t line =
  match send t [ line ] with Error e -> Error e | Ok () -> receive t

let close t =
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
