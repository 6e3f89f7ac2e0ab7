(** Socket front end for the query service.

    Listens on a Unix-domain socket or a TCP port, spawning one system
    thread per connection (socket I/O is blocking; query execution happens
    on the service's worker domains, so connection threads spend their
    time parked in [read]/[write]). Each connection gets its own
    {!Service.session} — prepared statements are session-scoped.

    [SHUTDOWN] (or {!stop}) closes the listener, disconnects clients and
    drains the worker pool. *)

type endpoint =
  | Unix_socket of string  (** Filesystem path. *)
  | Tcp of string * int  (** Bind host, port. *)

val pp_endpoint : Format.formatter -> endpoint -> unit

val max_line_bytes : int
(** Per-command line limit (bytes, newline excluded). A longer line is
    answered with [ERR PROTOCOL] and discarded; the connection remains
    usable. *)

val read_line_bounded : in_channel -> [ `Eof | `Overflow | `Line of string ]
(** Read one newline-terminated command of at most {!max_line_bytes}
    bytes; an overlong line is drained through its newline and reported
    as [`Overflow], keeping the stream framed. Shared with the shard
    coordinator's front end. *)

type t

val start : ?config:Service.config -> endpoint -> Storage.Catalog.t -> t
(** Bind, listen and start accepting. Raises [Unix.Unix_error] if the
    endpoint cannot be bound. An existing Unix-socket file is replaced.
    Sets SIGPIPE to be ignored process-wide, so a client that hangs up
    mid-reply costs only its own connection. *)

val service : t -> Service.t

val stop : t -> unit
(** Idempotent: close the listener and all connections, shut the service
    down. *)

val wait : t -> unit
(** Block until the server stops (e.g. a client sent [SHUTDOWN]). *)
