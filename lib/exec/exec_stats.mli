(** The shared per-operator instrumentation record: tuples consumed per
    input (the paper's {e depth} for rank-join inputs), tuples emitted, and
    the high-water mark of whatever the operator buffers internally (result
    queue, heap, hash table, sort run, ...). Every physical operator reports
    into one of these; the metrics registry ({!Metrics}) aggregates them per
    query. *)

type t

val create : int -> t
(** [create m] for an operator with m inputs ([m = 0] is allowed for
    leaves). *)

val reset : t -> unit

val bump_depth : t -> int -> unit
(** Record one tuple consumed from input [i]. *)

val note_depth : t -> int -> int -> unit
(** [note_depth t i n]: raise input [i]'s depth to [n] if larger — for
    operators that re-scan an input and report the deepest pass (NRJN's
    inner). *)

val add_depth : t -> int -> int -> unit
(** [add_depth t i n]: add [n] tuples to input [i] in one step — bulk
    accounting for the vectorized operators, which count a whole batch at
    once. *)

val bump_emitted : t -> unit

val add_emitted : t -> int -> unit
(** [add_emitted t n]: count [n] emitted tuples in one step — bulk
    accounting for batch-producing operators, so EXPLAIN ANALYZE still
    reports exact tuple-level counts at batch granularity. *)

val note_buffer : t -> int -> unit
(** Record the current buffered-element count (keeps the maximum). *)

val depth : t -> int -> int
(** Tuples consumed from input [i] so far. *)

val depths : t -> int array
(** Copy of all per-input depths. *)

val inputs : t -> int
(** Number of tracked inputs. *)

val total_in : t -> int
(** Sum of all per-input depths. *)

val left_depth : t -> int
(** [depth t 0] — binary-operator convenience. *)

val right_depth : t -> int
(** [depth t 1] — binary-operator convenience. *)

val buffer_max : t -> int

val emitted : t -> int

val pp : Format.formatter -> t -> unit
