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

val fetch : t -> rid -> Tuple.t
(** Fetch by rid through the pool (charges I/O on a pool miss).
    @raise Invalid_argument for a deleted rid. *)

val delete : t -> rid -> bool
(** Tombstone the tuple at [rid]; [false] when already deleted. Slots are
    never reused, so rids stay stable. *)

val cardinality : t -> int

val n_pages : t -> int

val tuples_per_page : t -> int

val scan : t -> unit -> Tuple.t option
(** A fresh full-scan cursor; every page access goes through the pool. *)

val page_rows : t -> int -> Tuple.t array
(** [page_rows t i] — the live tuples of the [i]-th page in storage order,
    read through the pool in one batch. Charges the same [tuples_read]
    total as pulling the page through a {!scan_pages} cursor, but with a
    single bulk charge per page (the unit of a vectorized scan). Out-of-range
    indices yield [[||]]. *)

val scan_pages : t -> lo:int -> hi:int -> unit -> Tuple.t option
(** Cursor over the page-index range [\[lo, hi)] of the file's pages in
    storage order — the unit of work ("morsel") for parallel scans.
    Concatenating [scan_pages] cursors over a partition of [0, n_pages)]
    yields exactly [scan]'s sequence. Out-of-range bounds are clamped. *)

val iter : (Tuple.t -> unit) -> t -> unit

val to_list : t -> Tuple.t list

val fold_with_rids : ('a -> rid -> Tuple.t -> 'a) -> 'a -> t -> 'a
(** Fold over the live tuples and their record ids in storage order, one
    pass over the pages through the pool. Charges one pool access per page
    and the file's cardinality in [tuples_read] (used by unclustered index
    builds and by DML predicate scans). *)
