(** System catalog: tables, indexes, and optimizer statistics.

    One catalog owns one buffer pool and one {!Io_stats.t}; all storage
    structures charge I/O there. The optimizer consults [table_stats] and
    [estimate_join_selectivity]; the executor resolves access paths here. *)

open Relalg

type t

type column_stats = {
  cs_count : int;
  cs_distinct : int;
  cs_min : float;
  cs_max : float;
  cs_histogram : Histogram.t;
}

type table_stats = {
  ts_cardinality : int;
  ts_pages : int;
  ts_columns : (string * column_stats) list;  (** Keyed by bare column name. *)
}

type index_info = {
  ix_name : string;
  ix_table : string;
  ix_key : Expr.t;  (** Key expression, usually a single column. *)
  ix_btree : Btree.t;
  ix_clustered : bool;
      (** Clustered (index-organized: leaves hold whole tuples) or
          unclustered (leaves hold record ids; each access fetches the heap
          page — one random I/O per tuple on a cold pool). The paper's
          ranked access paths behave like unclustered indexes. *)
}

type table_info = {
  tb_name : string;
  tb_schema : Schema.t;  (** Columns qualified with the table name. *)
  tb_heap : Heap_file.t;
  tb_stats : table_stats;
  tb_indexes : index_info list;
}

val create : ?pool_frames:int -> ?tuples_per_page:int -> unit -> t

val io : t -> Io_stats.t

val stats_epoch : t -> int
(** Monotonically increasing version of the optimizer-visible statistics.
    Bumped by {!create_table}, {!create_index}, {!analyze} and
    {!refresh_stats} (the operations that change what the optimizer sees);
    plan caches key on it so a stats refresh invalidates stale plans. *)

val table_epoch : t -> string -> int
(** The slice of {!stats_epoch} attributable to one table (0 for unknown
    tables). Monotone. *)

val epoch_of_tables : t -> string list -> int
(** Sum of {!table_epoch} over [names] — the effective epoch of a statement
    reading exactly those tables. Each summand is monotone, so equality is
    a sound staleness check that ignores DML on unrelated tables. *)

val pool : t -> Buffer_pool.t

val tuples_per_page : t -> int

val create_table : t -> string -> Schema.t -> Tuple.t list -> table_info
(** Load a table; columns are (re)qualified with the table name and
    statistics are computed immediately.
    @raise Invalid_argument if the name is taken. *)

val create_index :
  t -> ?clustered:bool -> name:string -> table:string -> key:Expr.t -> unit -> index_info
(** Build a B+-tree on the key expression over the current table contents
    ([clustered] defaults to [true]). *)

val index_lookup : t -> index_info -> Value.t -> Tuple.t list
(** Point probe through an index; unclustered indexes fetch the base tuples
    through the buffer pool (charging heap I/O). *)

val index_payload_to_tuple : table_info -> index_info -> Tuple.t -> Tuple.t
(** Resolve one index payload of the table's index: identity for clustered
    indexes, heap fetch for unclustered ones. The caller passes the table
    it already holds, so resolving a payload neither looks the table up
    nor allocates beyond the fetch. *)

val insert_into : t -> table:string -> Tuple.t list -> unit
(** Append tuples to a table, maintaining all of its indexes (clustered
    indexes receive the tuples, unclustered ones their record ids) and its
    sorted numeric columns. The published statistics ([tb_stats]) change
    only at the next {!refresh_stats} or {!analyze}.
    @raise Not_found for an unknown table.
    @raise Invalid_argument before changing anything if a tuple has the
    wrong arity or a string in a numeric column. *)

val matching : t -> table:string -> Expr.t -> (Heap_file.rid * Tuple.t) list
(** The live tuples satisfying the predicate, in storage order: the
    predicate scan of {!delete_from} and {!update_where}. It reads only the
    heap pages whose per-page zones ({!Zones}) admit every top-level
    conjunct [col op c] / [c op col] ([op] one of [= < <= > >=], [col] a
    numeric column, [c] an Int or a non-NaN Float); a skipped page costs no
    pool access and no [tuples_read]. Each table keeps one zone per page and
    numeric column, built by {!create_table}, rebuilt tight by {!analyze}
    and widened by every append and in-place write.
    @raise Not_found for an unknown table. *)

val delete_from : t -> table:string -> Expr.t -> int
(** Delete every tuple satisfying the predicate (found by {!matching}),
    maintaining all indexes and the sorted numeric columns; returns the
    number of deleted tuples. Deleted slots become tombstones, and zones
    are not narrowed. Published statistics change only at the next
    {!refresh_stats} or {!analyze}.
    @raise Not_found for an unknown table. *)

val update_where :
  t -> table:string -> Expr.t -> set:(string * (Tuple.t -> Value.t)) list -> int
(** Rewrite the tuples found by {!matching} in place, at the same record
    ids; [set] maps bare column names to functions of the old tuple. Every
    replacement is computed and validated before anything changes. An
    index entry moves only if its key changed (a clustered entry whose key
    did not gets its tuple swapped), and only changed cells leave and
    re-enter the sorted columns and widen the page's zones. Returns the
    number of updated tuples. Published statistics change only at the next
    {!refresh_stats} or {!analyze}.
    @raise Invalid_argument for an unknown column or an invalid
    replacement, before changing anything. *)

val refresh_stats : t -> string -> table_info
(** Publish statistics derived from the table's sorted numeric columns as
    the DML mutators left them, without reading the heap, and bump the
    table's epoch once. The result is equal (under [compare]) to what
    {!analyze} would publish. Costs one histogram per numeric column: its
    bucket counts are reused when the column's min and max did not move,
    and recounted in one pass over the column when they did.
    @raise Not_found for an unknown table. *)

val analyze : t -> string -> table_info
(** Recompute a table's statistics from its current contents by a full
    heap scan (the ANALYZE command of a real system), rebuilding its sorted
    numeric columns. Returns the refreshed info. *)

val check : t -> string -> (unit, string) result
(** Consistency check of one table, reading its heap once through the
    pool: every index holds exactly the live heap entries (clustered:
    tuples; unclustered: record ids) and passes
    {!Btree.check_invariants}; the heap's cardinality counts its live
    tuples; each numeric column's sorted values equal the sorted non-NULL
    heap cells; and every live cell lies inside its page's zone. [Error]
    names the first violation. *)

val table : t -> string -> table_info
(** @raise Not_found for an unknown table. *)

val find_table : t -> string -> table_info option

val tables : t -> table_info list

val indexes_on : t -> string -> index_info list

val find_index_on_expr : t -> table:string -> Expr.t -> index_info option
(** An index whose key induces the same order as the given expression. *)

val column_stats : t -> table:string -> column:string -> column_stats option

val estimate_join_selectivity :
  t -> left:string * string -> right:string * string -> float
(** Selectivity of the equi-join [left_table.left_col = right_table.right_col]
    using the standard [1 / max(V(L,a), V(R,b))] formula over distinct
    counts. *)

val reset_io : t -> unit
