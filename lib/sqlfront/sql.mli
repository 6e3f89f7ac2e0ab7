(** One-call SQL interface: parse, bind, optimize, execute, project.

    {[
      let answer =
        Sql.query catalog
          "SELECT A.id, B.id FROM A, B WHERE A.key = B.key
           ORDER BY 0.3*A.score + 0.7*B.score DESC LIMIT 5"
    ]} *)

open Relalg

type answer = {
  columns : string list;
  rows : Tuple.t list;
  scores : float list;  (** Ranking score per row; empty when unranked. *)
  planned : Core.Optimizer.planned;
}

val query :
  ?config:Core.Enumerator.config ->
  Storage.Catalog.t ->
  string ->
  (answer, string) result
(** Execute a SQL string end to end. All failures (lex, parse, bind, plan)
    are returned as [Error]. *)

(** {2 Prepared statements}

    The server's plan-cache building blocks: a {!template} is a parsed
    query whose [LIMIT] is a bind parameter ([LIMIT ?] or a literal k
    treated as a default binding), printed in canonical form so equivalent
    query texts share one cache key; a {!prepared} is a bound + optimized
    statement that can be executed repeatedly and rebound to a new [k]
    without re-optimizing (see {!Core.Optimizer.rebind_k}). *)

type prepared = {
  bound : Binder.bound;
  planned : Core.Optimizer.planned;
}

type template = {
  tpl_text : string;
      (** Canonical text ({!Ast.pp_query} with [LIMIT ?]) — the plan-cache
          key. Equivalent spellings (whitespace, the SQL99 WITH/rank()
          form) normalize to the same template text. *)
  tpl_ast : Ast.query;  (** [limit_param] set whenever a LIMIT was present. *)
  tpl_inline_k : int option;
      (** The literal k when the SQL spelled [LIMIT <n>] — the default
          binding for an [EXECUTE] without an explicit k. *)
}

val template_of_sql : string -> (template, string) result
(** Parse and normalize a SELECT into a cache-key template. *)

val template_of_ast : Ast.query -> template

val instantiate : template -> ?k:int -> unit -> (Ast.query, string) result
(** Bind the template's [LIMIT] parameter: an explicit [k] wins, else the
    inline literal; an unbound [LIMIT ?] without [k] is an error, as is
    passing [k] to a query with no LIMIT clause. *)

val prepare_ast :
  ?config:Core.Enumerator.config ->
  Storage.Catalog.t ->
  Ast.query ->
  (prepared, string) result
(** Bind and optimize an instantiated query. *)

val rebind_k : prepared -> int -> prepared
(** Re-push a new [k] through the prepared statement: the plan's Top-k
    limit, the depth-propagation environment and any post-execution limit
    are updated; the plan shape is reused. The caller should check
    {!Core.Optimizer.k_in_validity} first. *)

val project_rows :
  prepared -> Relalg.Schema.t -> (Relalg.Tuple.t * float) list -> answer
(** Post-executor answer assembly — projection (with the absolute,
    possibly dense, [rank()] numbering) and per-row scores — over an
    explicit (tuple, score) stream in the plan's output [schema]. The
    shard coordinator runs this on gathered rows so scattered answers are
    cell-identical to single-node ones. Not for aggregation queries. *)

val run_prepared :
  ?interrupt:(unit -> bool) ->
  Storage.Catalog.t ->
  prepared ->
  (answer, string) result
(** Execute a prepared statement (projection, post-sort/limit and
    aggregation included). [interrupt] is checked at operator [next()]
    boundaries; when it fires, {!Core.Executor.Interrupted} escapes — the
    server maps it to a timeout error. *)

(** {2 Cursors}

    Cursor-style ranked enumeration: an {e enumerable} prepared statement
    (its plan carries the Enumerate property — see
    {!Core.Optimizer.planned.enumerable}) can be kept open between
    fetches, streaming answers in score order past the original [k]
    without re-executing. The projection — including the running [rank()]
    column — is applied with an absolute row offset, so the concatenation
    of all fetches equals a one-shot execution at a larger k. *)

type cursor

val cursor_eligible : prepared -> bool
(** The plan is Enumerate-eligible and nothing runs after the executor
    that would re-order or truncate rows (no aggregation, no post-sort). *)

val open_cursor :
  ?interrupt:(unit -> bool) ->
  Storage.Catalog.t ->
  prepared ->
  cursor
(** Compile and open the statement's stream (root Top-k stripped). Only
    call on a {!cursor_eligible} statement; the caller must
    {!cursor_close}. [interrupt] is re-read on every fetch — update the
    state it consults before each {!cursor_fetch} to give each fetch its
    own deadline. *)

val cursor_columns : cursor -> string list
val cursor_prepared : cursor -> prepared

val cursor_position : cursor -> int
(** Absolute 0-based rank of the next row the cursor will emit. *)

val cursor_fetch : cursor -> int -> Relalg.Tuple.t list * float list
(** The next (up to) [n] projected rows with their scores, in
    non-increasing score order. Fewer than [n] rows mean the enumeration
    is exhausted; later calls return [([], [])]. *)

val cursor_close : cursor -> unit

val explain : ?config:Core.Enumerator.config -> Storage.Catalog.t -> string -> (string, string) result
(** The optimizer's plan description for a SQL string, without executing. *)

val analyze : ?config:Core.Enumerator.config -> Storage.Catalog.t -> string -> (string, string) result
(** [EXPLAIN ANALYZE]: run the query under a metrics registry and render the
    annotated plan tree — per-operator observed depths (vs the depth model's
    predictions for rank joins) and actual vs estimated I/O. *)

val constant_value : Value.dtype -> Ast.expr -> Value.t
(** Evaluate one INSERT VALUES constant expression and coerce it to the
    target column type — exactly the lowering {!execute} applies, exported
    so the shard coordinator can route a row to its owning shard using the
    very tuple the mirror stores. @raise Failure on column references. *)

type exec_result =
  | Rows of answer  (** A SELECT (or WITH) query's result. *)
  | Affected of int  (** Rows inserted or deleted by a DML statement. *)

val execute :
  ?config:Core.Enumerator.config -> Storage.Catalog.t -> string -> (exec_result, string) result
(** Execute any supported statement: SELECT/WITH queries, INSERT INTO ...
    VALUES (constant expressions, coerced to the column types), and DELETE
    FROM ... WHERE (single-table predicate). DML refreshes the table's
    statistics. *)
