(** Blocking client for the {!Protocol} line protocol.

    {!send} and {!receive} pipeline requests: write a batch of command
    lines in one flush, then read their framed responses in the order
    the lines were sent (the server answers each line in turn).
    {!request} is one of each. *)

type t

val connect : Listener.endpoint -> t
(** Raises [Unix.Unix_error] if the endpoint is unreachable. *)

val send : t -> string list -> (unit, string) result
(** Write the command lines, each newline-terminated, and flush once.
    [Error] means the connection failed. *)

val receive : t -> (Protocol.response, string) result
(** Read the next framed response (header plus its announced payload
    lines). [Error] means a transport or framing failure, not a
    server-side [ERR] — those come back as a response with
    [ok = false]. *)

val request : t -> string -> (Protocol.response, string) result
(** Send one command line and read its response: {!send} then
    {!receive}. *)

val close : t -> unit
