(** External merge sort.

    A blocking operator: on [open_] it consumes its whole input, building
    sorted runs bounded by the memory budget. Runs are spilled to temporary
    heap files through the buffer pool, so spill and merge I/O show up in the
    measured {!Storage.Io_stats} — matching the cost model's external-sort
    formula. When the input fits in memory no I/O is charged. *)

open Relalg
open Storage

type budget = {
  pool : Buffer_pool.t;  (** Pool used for run spill files. *)
  memory_tuples : int;  (** Max tuples held in memory while sorting. *)
  tuples_per_page : int;
  fan_in : int;  (** Max runs merged per pass. *)
}

val default_memory_tuples : int
(** 10_000: the executor's sort and hash-join memory, and the cost
    model's. *)

val default_fan_in : int
(** 8: the executor's merge fan-in, and the cost model's. *)

val budget :
  ?memory_tuples:int -> ?tuples_per_page:int -> ?fan_in:int -> Buffer_pool.t -> budget
(** Defaults: {!default_memory_tuples} in-memory tuples, 50 tuples/page,
    {!default_fan_in}. *)

val by_cmp :
  ?stats:Exec_stats.t -> budget -> cmp:(Tuple.t -> Tuple.t -> int) -> Operator.t -> Operator.t
(** Sort under an arbitrary total order. [stats] records tuples consumed
    (input 0), the in-memory batch high-water mark, and tuples emitted. *)

val by_expr :
  ?stats:Exec_stats.t -> budget -> ?desc:bool -> Expr.t -> Operator.t -> Operator.t
(** Sort on the numeric value of an expression (ascending by default). *)

val scored_desc : ?stats:Exec_stats.t -> budget -> Expr.t -> Operator.t -> Operator.scored
(** Sort descending on a score expression and emit a scored stream — the
    "glued sort" enforcer that makes any subplan usable as a rank-join
    input or as a final ranking producer. *)
