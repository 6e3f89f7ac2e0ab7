(** The [Vectorized] plan property: which subplans the executor runs
    batch-at-a-time on columnar batches with selection vectors, and the
    recompute used by the memo and by planlint's PL15.

    Shared by the executor (compilation contexts), the memo (the stored
    property bit) and planlint (bit consistency and batched/streaming
    boundary soundness). *)

val spine_ok : Plan.t -> bool
(** The batched spine shapes: a [Table_scan] leaf, [Filter] stacks, and
    [Hash] joins continuing on the left with a rank-join-free build side.
    Index scans are deliberately excluded — a B+-tree walk is per-tuple,
    and scored index scans feed early-out consumers that a batched reader
    would over-read. *)

val fused_sink : Plan.t -> bool
(** [Top_k (Sort spine)] with a {!spine_ok} spine: the executor fuses the
    pair into the vectorized bounded-heap top-k sink. *)

val vectorized : Plan.t -> bool
(** Whether executing the plan vectorizes {e any} operator: the plan
    property stored in the memo and shown by EXPLAIN. Mirrors the
    executor's compilation contexts exactly (bulk below sorts and hash
    joins, streaming below rank joins and top-k heaps). *)
