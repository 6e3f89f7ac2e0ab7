(** Compile physical plans to [exec] operator trees and run them.

    Execution is instrumented: measured I/O (through the catalog's counters)
    and, for every rank-join node, the actual input depths and buffer
    high-water mark — the quantities the estimation model of Section 4
    predicts and Section 5 validates. Supplying a {!Exec.Metrics.t} registry
    extends this to {e every} operator: per-node tuple counts plus the page
    I/O attributed to the node, returned as a [profile] tree mirroring the
    plan shape (the raw material of [EXPLAIN ANALYZE]). *)

open Relalg

type rank_node_stats = {
  label : string;  (** One-line description of the rank-join node. *)
  nrjn : bool;  (** An NRJN [Join]; otherwise a {!Plan.Rank_join}. *)
  stats : Exec.Exec_stats.t;
      (** Per-input depths (NRJN: outer first) and buffer. *)
}

type nary_node_stats = {
  nary_label : string;
  nary_stats : Exec.Exec_stats.t;  (** Per-input depths + buffer. *)
}
(** A rank join over three or more inputs, as {!run_result.nary_nodes}
    reports it. *)

type profile = {
  p_plan : Plan.t;  (** The subplan rooted at this operator. *)
  p_node : Exec.Metrics.node;  (** Its live stats + attributed I/O. *)
  p_children : profile list;
}

type run_result = {
  rows : (Tuple.t * float) list;
      (** Output tuples with their ranking score (0.0 for unranked plans). *)
  io : Storage.Io_stats.snapshot;  (** I/O charged during this run. *)
  rank_nodes : rank_node_stats list;
      (** The rank joins over two inputs (HRJN and NRJN), in plan pre-order:
          a join before the joins inside its inputs, the order of
          {!Propagate.rank_join_annotations}. *)
  nary_nodes : nary_node_stats list;
      (** The rank joins over three or more inputs, in the same order.
          Both lists split one registration list by arity. *)
  profile : profile option;  (** Present when a metrics registry was given. *)
  schema : Schema.t;
}

val node_label : Plan.t -> string
(** Non-recursive one-line operator name, e.g. ["HRJN"] or
    ["IndexScan a.ix DESC"]. *)

exception Interrupted
(** Raised from an operator's [next] when the [interrupt] predicate fires —
    the cooperative cancellation used for per-query deadlines. *)

val compile :
  ?metrics:Exec.Metrics.t ->
  ?interrupt:(unit -> bool) ->
  ?vectorized:bool ->
  Storage.Catalog.t ->
  Plan.t ->
  Exec.Operator.t * rank_node_stats list * profile option
(** Build the operator tree; the statistics of every rank-join node, in
    plan pre-order, are filled during execution. A {!Plan.Rank_join} runs
    as {!Exec.Rank_join.hrjn} over its inputs at every arity, polling the
    input whose threshold term is largest ({!Exec.Rank_join.Adaptive}), so
    a plan polls the same way however it is run. When a metrics
    registry is supplied, every operator is registered and I/O-scoped, and
    the matching [profile] tree is returned.

    [vectorized] (default [true]) runs the plan's {!Vectorize.spine_ok}
    regions batch-at-a-time on columnar batches with selection vectors,
    handing tuples back to streaming consumers at sink boundaries; rank
    joins, sorts and top-k heaps are untouched. Tuple-exact:
    same rows, same order, same rank-join depths, same buffer-pool
    charges; per-operator depth/emitted totals match at batch granularity
    (identical after a full drain). [~vectorized:false] forces the classic
    tuple-at-a-time compilation — the reference the [fuzz --vector]
    differential harness compares against. *)

val run :
  ?metrics:Exec.Metrics.t ->
  ?interrupt:(unit -> bool) ->
  ?vectorized:bool ->
  ?fetch_limit:int ->
  Storage.Catalog.t ->
  Plan.t ->
  run_result
(** Open, pull (up to [fetch_limit] rows, default everything), close. I/O is
    measured as a diff of the catalog's counters around the run. When
    [interrupt] is supplied it is checked at every operator's [next]
    boundary; a [true] result aborts the run with {!Interrupted}. *)

(** {2 Cursors}

    A cursor keeps a compiled plan {e open} between fetches, so a ranked
    statement can stream answers past its original [k] without
    re-executing. Unlike {!run} — which opens, pulls and closes — the
    operator tree is opened exactly once; callers must {!cursor_close}.

    The stream is normalized for deterministic enumeration: rows with NaN
    scores are dropped, and equal-score tie groups are buffered and
    re-emitted in canonical column order (columns sorted by
    [(relation, name)]), so every resumable plan shape of a query yields
    the same tuple sequence as the enumeration oracle. *)

type cursor

val strip_topk : Plan.t -> Plan.t
(** The plan below the root Top-k sink(s) — what a cursor executes. *)

val canonical_perm : Schema.t -> int array
(** Column positions sorted by [(relation, name)] — the tie-break and
    cross-plan comparison projection. *)

val canonical_compare : int array -> Tuple.t -> Tuple.t -> int

val open_cursor :
  ?interrupt:(unit -> bool) ->
  Storage.Catalog.t ->
  Plan.t ->
  cursor
(** Strip the root Top-k, compile, open. The caller is responsible for
    only opening cursors over resumable plans (see {!Enumerate}). The
    [interrupt] predicate is re-checked on every pull {e and} inside the
    anyK build loops, so a deadline can fire mid-fetch; update whatever
    state it reads before each fetch. *)

val cursor_schema : cursor -> Schema.t

val cursor_fetch : cursor -> int -> (Tuple.t * float) list
(** The next (up to) [n] answers in non-increasing score order. Fewer than
    [n] results mean the enumeration is exhausted; subsequent fetches
    return [[]] without re-polling the (already drained) inputs. *)

val cursor_close : cursor -> unit
