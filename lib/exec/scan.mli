(** Access-path operators: heap scans and B+-tree index scans.

    Every constructor takes an optional [stats] record (see {!Exec_stats});
    when given, it is reset on [open_] and bumped once per emitted tuple. *)

open Relalg
open Storage

val heap : ?stats:Exec_stats.t -> Catalog.table_info -> Operator.t
(** Full table scan through the buffer pool. *)

val index_asc : ?stats:Exec_stats.t -> Catalog.t -> Catalog.index_info -> Operator.t
(** Full index scan in ascending key order. Unclustered indexes resolve each
    entry through the heap (a random page access per tuple). *)

val index_desc : ?stats:Exec_stats.t -> Catalog.t -> Catalog.index_info -> Operator.t
(** Descending key order — a ranked access path. *)

val index_desc_scored :
  ?stats:Exec_stats.t -> Catalog.t -> Catalog.index_info -> Operator.scored
(** Descending index scan as a scored stream: the score is the (numeric)
    index key, which is exactly the {e sorted access} a rank-join needs. *)

val index_probe : Catalog.t -> Catalog.index_info -> Value.t -> Tuple.t list
(** Point lookup (random access). *)

val rank_window :
  ?stats:Exec_stats.t ->
  ?dense:bool ->
  Catalog.t ->
  Catalog.index_info ->
  lo:int ->
  hi:int ->
  tie_cmp:(Tuple.t -> Tuple.t -> int) ->
  Operator.t
(** Rows ranked [lo..hi] (1-based, rank 1 = best score, best first) via the
    order-statistic index: one counted descent plus a window-sized walk of
    the leaf chain, O(log n + window). Duplicate scores share the block's
    minimum rank; [tie_cmp] orders block members canonically. NaN-scored
    rows are never ranked. [dense] (default false) switches to dense
    ranking: distinct scores numbered consecutively, whole tie blocks kept
    (O(hi log n + output) block walk, see {!Storage.Rank_index}). *)

val rank_window_sort :
  ?stats:Exec_stats.t ->
  ?dense:bool ->
  Catalog.table_info ->
  score:Expr.t ->
  lo:int ->
  hi:int ->
  tie_cmp:(Tuple.t -> Tuple.t -> int) ->
  Operator.t
(** Same window semantics without an index: drain the heap, sort by [score]
    descending (ties by [tie_cmp], NaN dropped), slice — competition or
    dense per [dense]. Blocking. *)
