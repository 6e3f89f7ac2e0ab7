(** Heap files: unordered paged tuple storage, accessed via a buffer pool. *)

open Relalg

type t

type rid = { page_id : int; slot : int }
(** Record identifier: stable address of a stored tuple. *)

val create : ?tuples_per_page:int -> Buffer_pool.t -> Schema.t -> t
(** Default page capacity is 50 tuples. *)

val schema : t -> Schema.t

val append : t -> Tuple.t -> rid
(** Add a tuple (fills the last page, allocating a new one when full). *)

val load : t -> Tuple.t list -> unit

val fetch : t -> page_id:int -> slot:int -> Tuple.t
(** Fetch the row at a rid's two fields through the pool (charges I/O on a
    pool miss). Takes the fields rather than a [rid], so an index cursor
    resolving one payload per tuple builds no record.
    @raise Invalid_argument for a deleted slot. *)

val delete : t -> rid -> bool
(** Tombstone the tuple at [rid]; [false] when already deleted. Slots are
    never reused, so rids stay stable. *)

val replace : t -> rid -> Tuple.t -> unit
(** Overwrite the live tuple at [rid] in place: same rid, same page, one
    pool access (like {!delete}). The page keeps its slot order, so a
    rewritten row stays where a scan found it.
    @raise Invalid_argument for a deleted rid or a wrong-arity tuple. *)

val cardinality : t -> int

val n_pages : t -> int
(** O(1). *)

val tuples_per_page : t -> int

val scan : t -> unit -> Tuple.t option
(** A fresh full-scan cursor; every page access goes through the pool. *)

val page_rows : t -> int -> Tuple.t array
(** [page_rows t i] — the live tuples of the [i]-th page in storage order,
    read through the pool in one batch. Charges the same [tuples_read]
    total as pulling the page through a {!scan} cursor, but with a
    single bulk charge per page (the unit of a vectorized scan). Out-of-range
    indices yield [[||]]. *)

val iter : (Tuple.t -> unit) -> t -> unit

val to_list : t -> Tuple.t list

val fold_with_rids :
  ?admit:(int -> bool) -> ('a -> int -> rid -> Tuple.t -> 'a) -> 'a -> t -> 'a
(** [fold_with_rids ?admit f init t] folds [f acc page rid tuple] over the
    live tuples in storage order, [page] being the ordinal of the tuple's
    page in [\[0, n_pages)]. Pages whose ordinal [admit] rejects (default:
    none) are skipped without a pool access. Charges one pool access per
    visited page and the visited pages' live tuples in [tuples_read] — the
    file's cardinality when every page is visited (used by index builds,
    ANALYZE and DML predicate scans). *)
