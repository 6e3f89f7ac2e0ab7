(** LRU buffer pool over a set of in-memory "disk" pages.

    All heap-file page access goes through a pool; misses charge a page read
    to the pool's {!Io_stats.t}, evictions of dirty pages charge a write.
    This makes measured I/O sensitive to the buffer budget, as in a real
    engine.

    The pool is domain-safe and latch-split: pages are striped across
    shards by id, each with its own mutex, cache partition, and LRU clock,
    so statements running on several service worker domains and touching
    distinct pages do not serialize on one pool-wide lock. Per-shard frame quotas sum to the configured
    budget, so total residency never exceeds [frames]; small pools
    collapse to a single shard and behave exactly as before. *)

type t

val create : ?frames:int -> Io_stats.t -> t
(** [frames] is the pool capacity in pages (default 64, minimum 1). *)

val frames : t -> int

val stats : t -> Io_stats.t

val alloc_page : t -> capacity:int -> Page.t
(** Allocate a fresh empty page on the backing store and pin it into the
    pool (charges nothing: the page is born dirty in memory). *)

val get : t -> int -> Page.t
(** Fetch a page by id, through the LRU cache.
    @raise Invalid_argument for an unknown page id. *)

val mark_dirty : t -> int -> unit
(** Note that a page was modified, so eviction must write it. If the page
    has been evicted since it was fetched, it is faulted back in (charging a
    page read) and the fresh frame is dirtied — the write-back is never
    silently dropped. @raise Invalid_argument for an unknown page id. *)

val flush : t -> unit
(** Write back all dirty cached pages (charging writes) without evicting. *)

val resident : t -> int
(** Number of pages currently cached. *)
