(** The concurrent query service.

    A {!t} owns a catalog, a rank-aware plan cache ({!Plan_cache}), a
    writer-preferring catalog lock ({!Rkutil.Latch.Rw}) and a pool of OCaml 5
    {!Domain} workers fed by a bounded job queue. Connection threads (or
    in-process callers) open {!session}s and submit statements:

    - SELECTs are normalized to a template ({!Sqlfront.Sql.template}),
      looked up in the plan cache keyed on (template text, catalog stats
      epoch) and the bound [k], and executed on a worker under the shared
      read lock. A cache hit rebinds [k] without re-optimizing (valid by
      the plan's recorded k-interval); an interval miss re-optimizes and
      stores the new variant.
    - INSERT / DELETE run on a worker under the exclusive write lock
      (catalog structures are not safe under concurrent mutation). The
      statistics refresh bumps the catalog's stats epoch, lazily
      invalidating cached plans.

    Admission control: when the job queue is full the statement is shed
    immediately with {!Queue_full}. Every statement carries a deadline;
    expired queued jobs are cancelled without running, and running queries
    are interrupted cooperatively at operator [next()] boundaries. *)

type config = {
  workers : int;  (** Worker domains (>= 1). *)
  queue_capacity : int;  (** Bounded job queue; overflow is shed. *)
  cache_capacity : int;  (** Plan-cache templates (LRU). *)
  default_timeout_s : float;  (** Per-statement deadline when unspecified. *)
}

val default_config : config

type error =
  | Parse_error of string
  | Bind_error of string
  | Plan_error of string
  | Exec_error of string
  | Timeout
  | Queue_full of string
      (** Shed by admission control; carries the identifier of the shed
          statement — the prepared/cursor name when one exists, the SQL
          text otherwise — so clients can tell {e which} in-flight
          statement was refused. *)
  | Unknown_prepared of string
  | Unknown_cursor of string
  | Cursor_stale of string
      (** Carries the cursor's name. The statistics epoch of one of the
          cursor's own tables moved
          (DML ran against them) since the cursor was opened: its
          materialized enumeration state is stale. The cursor is closed;
          re-EXECUTE to re-plan. DML on unrelated tables does {e not}
          invalidate the cursor. *)
  | Shutting_down

val error_code : error -> string
(** Stable machine-readable code, e.g. ["TIMEOUT"], ["QUEUE_FULL"]. *)

val error_message : error -> string

type reply = {
  columns : string list;
  rows : Relalg.Tuple.t list;
  scores : float list;  (** Per-row ranking score; empty when unranked. *)
  affected : int option;  (** [Some n] for DML, [None] for queries. *)
  cached : bool;  (** Plan came from the cache (possibly k-rebound). *)
  reoptimized : bool;
      (** The template was cached but no variant covered this [k] (or the
          stats epoch moved): the service re-optimized on rebind. *)
  latency_s : float;
}

type t
type session

val create : ?config:config -> Storage.Catalog.t -> t
(** Spawns the worker domains. *)

val shutdown : t -> unit
(** Stop accepting work, drain queued jobs, join the worker domains.
    Idempotent. *)

val begin_drain : t -> unit
(** Graceful shutdown, phase one: new statements are rejected with
    [Shutting_down] while statements already admitted keep running and
    deliver their replies. *)

val drain : ?timeout_s:float -> t -> bool
(** Phase two: block until every in-flight statement has delivered its
    reply (or [timeout_s] elapses). Returns [true] if fully drained. *)

val inflight : t -> int
(** Statements admitted whose reply has not been delivered yet. *)

val sessions : t -> int
(** Currently open sessions. *)

val open_session : t -> session
val close_session : session -> unit

val set_timeout : session -> float option -> unit
(** Override this session's default statement deadline ([None] restores
    the server config default). An explicit per-call [?timeout_s] still
    wins. The coordinator uses this to propagate its remaining deadline
    to shard sessions before scattering. *)

val prepare :
  session -> name:string -> string -> (Sqlfront.Sql.template, error) result
(** Parse and normalize a SELECT, registering it under [name] in this
    session. [LIMIT ?] makes [k] a bind parameter; a literal [LIMIT n]
    doubles as the default binding. *)

val execute_prepared :
  session -> ?timeout_s:float -> ?k:int -> string -> (reply, error) result
(** Execute a prepared statement, binding [k] if given. A [k < 1] is a
    {!Bind_error} rejected before the plan cache is touched. When the
    chosen plan is cursor-eligible ({!Sqlfront.Sql.cursor_eligible}) the
    first k answers are served through a cursor that stays open under the
    statement's name for {!fetch} continuations; any cursor previously
    open under that name is dropped first. *)

val fetch :
  session -> ?timeout_s:float -> name:string -> int -> (reply, error) result
(** [FETCH NEXT n]: the next [n] ranked answers of the cursor opened by
    {!execute_prepared}, in non-increasing score order, tuple-identical
    to the continuation of a one-shot execution at a larger k. Fewer than
    [n] rows mean the enumeration is exhausted. Each fetch runs as its
    own pool job with its own deadline and re-validates the per-table
    stats epoch of the cursor's FROM tables — on mismatch the cursor is
    closed and {!Cursor_stale} returned. [n < 1] is a {!Bind_error}. *)

val close_cursor : session -> string -> (unit, error) result
(** Close and drop the session's cursor under this name. *)

val query :
  session -> ?timeout_s:float -> ?k:int -> string -> (reply, error) result
(** One-shot statement: SELECT/WITH through the plan cache, INSERT/DELETE
    serialized under the write lock. *)

val explain : session -> string -> (string, error) result
(** Optimizer plan description (includes the plan's k-validity interval
    and the catalog stats epoch); runs inline, not on a worker. *)

val rank_probe :
  session ->
  ?dense:bool ->
  table:string ->
  column:string ->
  float ->
  (int option * int, error) result
(** [RANK t.c OF v]: the minimum 1-based rank a row scoring [v] on the
    order-statistic index keyed on [t.c] holds (or would hold), and the
    total ranked (non-NaN) entry count. With [~dense:true] both numbers
    count {e distinct} scores instead ([DENSE_RANK] semantics: tie blocks
    share one number, so the total is the number of distinct scores).
    [None] for a NaN probe value.
    Requires an index keyed on exactly that column ({!Plan_error}
    otherwise); runs inline under the read lock — O(log n) node visits. *)

val stats : t -> (string * string) list
(** Server-wide fields: query/error/timeout/shed counters, p50/p95
    latency, plan-cache hits/misses/reopt-on-rebind/invalidations/
    evictions/hit-rate, queue depth, worker count, sessions, epoch. *)

val session_stats : session -> (string * string) list

val cache_stats : t -> Plan_cache.stats

(** Snapshot of every cached plan variant as [(template key, stats epoch,
    prepared plan)] — audited by the planlint cache rule (PL10). *)
val cache_entries : t -> (string * int * Sqlfront.Sql.prepared) list
val server_metrics : t -> Metrics.snapshot
val queue_depth : t -> int
val catalog : t -> Storage.Catalog.t
