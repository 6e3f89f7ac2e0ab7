(** Catalog persistence: save/load a whole catalog to a directory.

    On-disk layout (plain text, diffable):

    {v
    <dir>/catalog.meta   -- one line per table: schema + index definitions
    <dir>/<table>.tbl    -- one tab-separated line per tuple
    v}

    Indexes are re-built on load from their persisted key expressions;
    statistics are recomputed. This is an offline snapshot facility, not a
    transactional store. *)

val add_value : Buffer.t -> Relalg.Value.t -> unit
(** The HEX cell writer: one cell as [<tag>:<payload>] — [n:], [i:%d],
    [f:%h] (exact round-trip), [s:] with [String.escaped], [b:true] /
    [b:false] — appended to the buffer. The spelling never contains a
    tab or newline; it is the [.tbl] row format and the server's
    [WIRE HEX] row codec. Byte-equal to the [Printf]-built spelling
    (see {!Rkutil.Num_codec}). *)

val value_encode : Relalg.Value.t -> string
(** {!add_value} as a string. *)

val value_of_slice : string -> int -> int -> Relalg.Value.t
(** The HEX cell reader: [value_of_slice s pos len] decodes the cell
    [String.sub s pos len] without copying it (strings excepted), with
    results bit-equal to [int_of_string], [float_of_string],
    [Scanf.unescaped] and [bool_of_string] on the payload.
    @raise Failure on malformed input ([Invalid_argument] for a bad
    bool, as [bool_of_string]). *)

val value_decode : string -> Relalg.Value.t
(** Inverse of {!value_encode}: {!value_of_slice} over the whole string.
    @raise Failure on malformed input. *)

val save : Catalog.t -> dir:string -> unit
(** Write the catalog. The directory is created if absent; existing files
    for the same tables are overwritten.
    @raise Sys_error on I/O problems. *)

val load : ?pool_frames:int -> ?tuples_per_page:int -> dir:string -> unit -> Catalog.t
(** Read a catalog written by {!save}.
    @raise Failure on malformed files. *)
