(** Traditional (non-ranking) join operators.

    All joins emit the concatenation of left and right tuples. Equi-joins
    take one key expression per side, compiled against that side's schema.
    These are the join choices available to the optimizer next to the
    rank-join operators, and the substrate of the join-then-sort baseline.

    Each constructor accepts an optional [stats] record (see {!Exec_stats},
    reset on [open_]): input 0 counts tuples pulled from the left/outer
    input, input 1 from the right/inner input, [emitted] counts join
    results, and [buffer_max] tracks the largest in-memory structure (left
    block, hash table, probe buffer, or right merge group). *)

open Relalg

val default_block_size : int
(** 1000: the executor's nested-loops left block, in tuples, and the cost
    model's. *)

val nested_loops :
  ?stats:Exec_stats.t ->
  ?block_size:int ->
  pred:Expr.t ->
  Operator.t ->
  Operator.t ->
  Operator.t
(** Block nested loops under an arbitrary predicate over the concatenated
    schema. The right input is re-opened once per left block
    (default {!default_block_size} tuples). *)

val index_nested_loops :
  ?stats:Exec_stats.t ->
  ?residual:Expr.t ->
  left_key:Expr.t ->
  right_schema:Schema.t ->
  lookup:(Value.t -> Tuple.t list) ->
  Operator.t ->
  Operator.t
(** For each left tuple, probe the right table's index with the left key
    value ([lookup] is typically [Scan.index_probe]); optionally filter by a
    residual predicate. Input 1 of [stats] counts fetched index matches. *)

val hash :
  ?stats:Exec_stats.t ->
  ?residual:Expr.t ->
  left_key:Expr.t ->
  right_key:Expr.t ->
  Operator.t ->
  Operator.t ->
  Operator.t
(** In-memory hash join: builds on the right input at [open_]. *)

val grace_hash :
  ?stats:Exec_stats.t ->
  ?residual:Expr.t ->
  ?partitions:int ->
  left_key:Expr.t ->
  right_key:Expr.t ->
  Sort.budget ->
  Operator.t ->
  Operator.t ->
  Operator.t
(** Memory-adaptive hash join: when the build (right) input fits in the
    budget's [memory_tuples] it behaves exactly like {!hash}; otherwise both
    inputs are hash-partitioned to spill files through the buffer pool
    (charging the I/O) and each partition pair is joined in memory
    (default 8 partitions). Oversized partitions fall back to block nested
    loops within the partition, keeping memory bounded. *)

val sort_merge :
  ?stats:Exec_stats.t ->
  ?residual:Expr.t ->
  left_key:Expr.t ->
  right_key:Expr.t ->
  Sort.budget ->
  Operator.t ->
  Operator.t ->
  Operator.t
(** Sorts both inputs on their keys (external sort) and merges, handling
    duplicate key groups on both sides. [stats] observes the merge step
    (post-sort inputs). *)

val merge_only :
  ?stats:Exec_stats.t ->
  ?residual:Expr.t ->
  left_key:Expr.t ->
  right_key:Expr.t ->
  Operator.t ->
  Operator.t ->
  Operator.t
(** Merge step alone, for inputs already sorted ascending on their keys. *)
