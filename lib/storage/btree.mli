(** Order-statistic B+-tree index, index-organized (leaves store whole
    tuples).

    This is the access path that makes ranking orders available "naturally":
    a descending scan over a score-keyed tree is exactly the {e sorted
    access} a rank-join input needs, while point probes provide the
    {e random access} used by index-nested-loops joins and the TA
    rank-aggregation algorithm. Internal nodes additionally carry subtree
    entry counts, maintained along the root-to-leaf path of every insert and
    delete, so positional access ({!select_pos}) and rank probes
    ({!count_lt}/{!count_le}) cost one O(log n) descent. Duplicate keys are
    allowed. Node visits are charged to the supplied {!Io_stats.t}. *)

open Relalg

type t

val create : ?fanout:int -> Io_stats.t -> unit -> t
(** [fanout] is the max entries per node (default 64, minimum 4). *)

val insert : t -> Value.t -> Tuple.t -> unit

val bulk_load : ?fanout:int -> Io_stats.t -> (Value.t * Tuple.t) list -> t
(** Build a packed tree from (not necessarily sorted) entries. *)

val delete : t -> Value.t -> Tuple.t -> bool
(** Remove one entry holding exactly this key and tuple (under
    {!Relalg.Value.identical}, not [Value.compare]); [false] when absent.
    Leaves may underflow, but a leaf that empties is unlinked from the
    sibling chain (and its subtree removed), so scans never traverse dead
    leaves and a root left with one child collapses a level. *)

val replace : t -> Value.t -> Tuple.t -> Tuple.t -> bool
(** [replace t key tuple fresh] swaps the tuple of one entry holding exactly
    [key] and [tuple] (as {!delete} matches them) for [fresh], in place: the entry keeps its key and
    its position among duplicates, and no count changes. The caller keeps
    [fresh] under the same key. [false] when absent. Charges what
    {!delete} charges. *)

val length : t -> int
(** Number of entries. *)

val height : t -> int
(** Levels from root to leaf; 1 for a single-leaf tree. *)

val lookup : t -> Value.t -> Tuple.t list
(** All tuples stored under an exactly-equal key (charges one probe). *)

val range :
  ?lo_incl:bool ->
  ?hi_incl:bool ->
  t ->
  lo:Value.t option ->
  hi:Value.t option ->
  Tuple.t list
(** Range scan, ascending. Both endpoints are inclusive by default;
    [~lo_incl:false] / [~hi_incl:false] exclude entries exactly equal to the
    corresponding bound (duplicates of a bound key are kept or dropped as a
    block, even when they span leaf splits). [None] means unbounded. *)

val scan_asc : ?from:Value.t -> t -> unit -> Tuple.t option
(** Cursor over entries with key ≥ [from] (or all), ascending key order. *)

val scan_desc : ?from:Value.t -> t -> unit -> Tuple.t option
(** Cursor over entries with key ≤ [from] (or all), descending key order —
    the sorted access used by rank-join inputs. *)

val count_lt : t -> Value.t -> int
(** Entries with key strictly below the probe key: one counted descent
    (charges a probe plus [height] node visits). *)

val count_le : t -> Value.t -> int
(** Entries with key at or below the probe key. Duplicates of the probe key
    are counted as a block, matching {!range}'s bound semantics. *)

val select_pos : t -> pos:int -> len:int -> (Value.t * Tuple.t) list
(** The [len] entries starting at ascending 0-based position [pos]: a
    count-guided descent to the first entry, then a leaf-chain walk —
    O(log n + len). Clamped to the live entries; out-of-range windows
    return the empty list. *)

val n_leaves : t -> int
(** Leaves on the sibling chain (uncharged; used by tests to relate scan
    cost to live structure). *)

val to_list_asc : t -> (Value.t * Tuple.t) list

val check_invariants : t -> (unit, string) result
(** Structural check used by tests: sorted leaves, correct separators and
    subtree counts, no empty non-root leaves, consistent leaf chaining and
    entry count. *)
