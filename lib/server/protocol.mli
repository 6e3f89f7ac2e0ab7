(** The line protocol spoken between [rankopt serve] and its clients.

    Requests are single lines (SQL must not contain newlines):

    {v
    PING
    PREPARE <name> <sql>
    EXECUTE <name> [k]
    FETCH <name> NEXT [n]
    CLOSE <name>
    QUERY <sql>
    EXPLAIN <sql>
    RANK <table>.<column> OF <value> [DENSE]
    STATS [SESSION]
    WIRE TEXT|HEX
    TIMEOUT <seconds>|DEFAULT
    SHARD LIST | SHARD ADD <path>
    QUIT
    SHUTDOWN
    v}

    Responses are a header line followed by a fixed number of payload
    lines:

    {v
    OK <n> [key=value ...]   -- then exactly n payload lines
    ERR <CODE> <message>     -- no payload
    v}

    Query payload lines are tab-separated column values; ranked results
    carry the score as a final [score=<f>] field. *)

type command =
  | Ping
  | Prepare of { name : string; sql : string }
  | Execute of { name : string; k : int option }
  | Fetch of { name : string; n : int }
      (** Cursor continuation of an executed statement: the next [n]
          ranked answers ([NEXT] without a count fetches one). *)
  | Close of string  (** Drop the cursor under this statement name. *)
  | Query of string
  | Explain of string
  | Rank of { table : string; column : string; value : float; dense : bool }
      (** [RANK <table>.<column> OF <value>] — probe the order-statistic
          index for the minimum 1-based rank a row scoring [value] holds
          (or would hold); rank 1 = highest score. *)
  | Stats of [ `Server | `Session ]
  | Wire of [ `Text | `Hex ]
      (** Per-connection row codec. [`Hex] renders cells with the persist
          codec (floats in [%h]) so the stream round-trips bit-exactly —
          the shard coordinator relies on it. *)
  | Timeout of float option
      (** Session default statement deadline; [None] restores the server
          default. Coordinators propagate their remaining deadline to
          shards with this before scattering. *)
  | Shard_add of string
      (** Coordinator-only: attach a new in-process shard and repartition
          (the plain listener answers [ERR SHARD]). *)
  | Shard_list  (** Coordinator-only: one payload line per shard. *)
  | Quit
  | Shutdown

val parse_command : string -> (command, string) result

type response = {
  ok : bool;
  code : string;  (** Error code when [not ok], [""] otherwise. *)
  fields : (string * string) list;  (** Header key=value pairs. *)
  message : string;  (** Error message when [not ok]. *)
  payload : string list;
}

val ok_response : ?fields:(string * string) list -> string list -> response

val err_response : code:string -> string -> response

val render : response -> string list
(** Header + payload, each element one line (no trailing newline). *)

val parse_header : string -> (response, string) result
(** Parse a header line into a payload-less {!response}; the caller reads
    the announced number of payload lines (see {!payload_count}). *)

val payload_count : string -> int
(** Number of payload lines announced by an [OK] header line (0 for
    [ERR]). *)

val render_reply : ?codec:[ `Text | `Hex ] -> Service.reply -> response
(** Rows as tab-separated values (scores appended as [score=..] fields),
    with [cached] / [reoptimized] / [latency_ms] ([%.3f]) / [affected]
    header fields. [`Hex] (default [`Text]) encodes cells with
    {!Storage.Persist.add_value} and scores as [%h]. *)

val latency_ms : float -> string
(** The [latency_ms] header value of a reply that took the given
    seconds: the milliseconds as [%.3f]. *)

val timeout_value : float option -> string
(** The [timeout] header value of a [TIMEOUT] reply: [default], or the
    seconds as [%g]. *)

val render_rows :
  [ `Text | `Hex ] -> Relalg.Value.t array list -> float list -> string list
(** One line per row, built in one buffer by the codec's cell writer
    ({!Relalg.Value.add_text} or {!Storage.Persist.add_value}): its
    cells tab-separated, then, when [scores] is not empty (one per
    row), a trailing {!add_score} cell. No cell goes through [Printf];
    the bytes are those of the [Printf] spellings. *)

val add_score : [ `Text | `Hex ] -> Buffer.t -> float -> unit
(** The score trailer: [score=%.6f] ([`Text]) or [score=%h] ([`Hex]). *)

val render_score : [ `Text | `Hex ] -> float -> string
(** {!add_score} as a string. *)

val score_of_slice : [ `Text | `Hex ] -> string -> int -> int -> float option
(** Recognize a [score=<f>] trailer cell in [String.sub s pos len]; the
    number is read bit-equal to [float_of_string] (any spelling it
    accepts, under either codec). A [`Hex] trailer is read without
    copying it. *)

val parse_score : [ `Text | `Hex ] -> string -> float option
(** {!score_of_slice} over the whole string. *)
