(** The planlint rule catalog (PL01–PL15; PL11, exchange placement, was
    retired with intra-query parallelism and its ID is not reused).

    Each rule checks one optimizer invariant and reports violations as
    {!Diag.t} values. Rules come in two layers: pure checkers over plain
    data ([check_propagation], [check_depths], [check_estimate]) that
    mutation tests can feed hand-corrupted inputs, and drivers that derive
    that data from a plan/memo/planned statement — the form the engine,
    CLI and fuzz harness use. The full catalog with paper references lives
    in DESIGN.md. *)

val catalog : (string * string) list
(** [(rule id, one-line invariant)] for every shipped rule. *)

(** {2 PL01-schema — well-typedness at operator boundaries} *)

val schema_rule : Storage.Catalog.t -> Walk.facts -> Diag.t list
(** Tables and indexes exist; index keys match the catalog; predicates,
    sort keys, join keys and score expressions are bound by the schema of
    the input they run over and are well-typed (predicates boolean, scores
    numeric); Top-k limits are non-negative; rank joins and anyK are
    ≥ 2-way with one score (and one key) per input. *)

(** {2 PL02-order — order-property soundness} *)

val order_rule : Walk.facts -> Diag.t list
(** Every order a node claims ({!Core.Plan.order_of}) must be justified by
    its inputs plus its own semantics ({!Walk.facts.produced}); rank joins
    must carry the score expressions their output order is built from. *)

(** {2 PL03-pipeline — pipelining-flag consistency} *)

val pipeline_rule : ?stored:bool -> Walk.facts -> Diag.t list
(** The claimed pipelining property ({!Core.Plan.pipelined}) matches the
    independently recomputed streaming property at every node; when a
    [stored] MEMO property bit is supplied it must match too. *)

(** {2 PL04-filter — filter preservation logical → physical} *)

val filter_rule : query:Core.Logical.t -> Walk.facts -> Diag.t list
(** Every relation filter and join predicate of the logical query whose
    relations the plan covers is applied somewhere in the physical plan
    (as a Filter conjunct, a join condition, or a rank join's keys) — the
    INL-join dropped-filter bug class. *)

(** {2 PL05-kprop — k-propagation sanity (Figure 8)} *)

val check_propagation :
  Core.Cost_model.env -> k:int -> Core.Propagate.annotation -> Diag.t list
(** Pure checker: root requirement equals [max 1 k]; requirements are
    non-negative and non-NaN everywhere; rank-join input depths lie within
    [\[1, input cardinality\]]. *)

val propagation_rule : Core.Cost_model.env -> k:int -> Core.Plan.t -> Diag.t list
(** Driver: runs {!Core.Propagate.run} at [k] and [2k], applies
    {!check_propagation} and checks monotonicity in [k]. *)

(** {2 PL06-depth — Theorem-1/2 depth-bound sanity} *)

val check_depths : path:string -> cards:float array -> float array -> Diag.t list
(** Pure checker on one rank join: one depth per input ([cards] holds the
    inputs' estimated cardinalities), each finite, ≥ 1 and ≤ its input
    cardinality (with the model's [max 1] floor). *)

val depth_rule : Core.Cost_model.env -> Core.Plan.t -> Diag.t list
(** For every rank-join node (HRJN over any number of inputs, and
    NRJN), the depths {!Core.Cost_model.rank_join_depths} predicts at
    [k_min] and [2·k_min] satisfy {!check_depths} and no input's depth
    shrinks. *)

(** {2 PL07-cost — cost estimate monotonicity} *)

val check_estimate :
  path:string -> ?child_floor:float -> Core.Cost_model.estimate -> Diag.t list
(** Pure checker: rows and costs are finite and non-negative; [cost_at] is
    non-decreasing and agrees with [total_cost] at full output;
    [total_cost] is at least [child_floor] (the summed cost of inputs a
    full-consumption operator must pay for). *)

val cost_rule : Core.Cost_model.env -> Core.Plan.t -> Diag.t list
(** Driver: applies {!check_estimate} at every node, with a child floor
    for full-consumption operators only (rank joins and Top-k legitimately
    stop early), plus output-cardinality monotonicity (a filter/limit
    cannot produce more rows than its input). *)

(** {2 PL08-memo — memo hygiene} *)

val subplan_rule :
  Core.Cost_model.env -> ?key:int -> Core.Memo.subplan -> Diag.t list
(** A retained subplan's property bits match recomputation: relation
    bitmask equals its entry key, stored order equals the plan's claim,
    stored estimate equals a fresh estimate; the stored pipelining bit is
    checked under PL03. *)

val memo_rule : Core.Cost_model.env -> Core.Memo.t -> Diag.t list
(** Whole-memo driver: entry keys are valid non-empty relation masks;
    every retained subplan passes {!subplan_rule}; join subplans reference
    existing child entries (no dangling group references). *)

(** {2 PL09-topk — top-k root shape and k-interval sanity} *)

val topk_rule : Core.Optimizer.planned -> Diag.t list
(** A ranking query's chosen plan is rooted at [Top_k] with the query's
    [k], contains no other [Top_k], and its input justifiably produces the
    scoring order descending; an unranked plan contains no [Top_k]. The
    k-validity interval is well-formed and (on the standard optimize path)
    contains the query's [k]; the recorded estimate matches the plan. *)

(** {2 PL10-cache — plan-cache entry consistency} *)

val cache_entry_rule :
  key:string -> epoch:int -> Sqlfront.Sql.prepared -> Diag.t list
(** A cache entry's key is a canonical template text (round-trips through
    {!Sqlfront.Sql.template_of_sql}), its epoch is non-negative, its plan's
    bound [k] lies inside the variant's validity interval, and the interval
    endpoints are sane. *)

(** {2 PL12-enum — Enumerate-bit / cursor-resumability consistency} *)

val check_enumerate_bit :
  path:string ->
  query:Core.Logical.t ->
  recomputed:bool ->
  bool ->
  Diag.t list
(** Pure checker: the stored Enumerate property bit equals the recomputed
    {!Core.Enumerate.eligible} verdict. *)

val enumerate_rule : Core.Optimizer.planned -> Diag.t list
(** Driver: the planned statement's Enumerate bit matches recomputation;
    when set, the stream under the root Top-k is independently verified
    resumable (no nested Top-k, walker-justified scoring
    order) — no cursor may be kept open over a non-resumable sink. Every
    anyK node's shape bit must describe its key bindings' parents. *)

(** {2 PL13-rank — by-rank access-path justification} *)

val rank_node : Storage.Catalog.t -> Walk.facts -> Diag.t list
(** Pure per-node checker (mutation tests feed it hand-corrupted plans):
    a [Rank_index_scan]'s window is sane ([1 <= lo <= hi]), its score
    expression is numeric over the base table's schema, and — for the
    indexed variant — the named index exists on the scanned table and is
    keyed on exactly the claimed score expression (a by-rank plan's
    descending-order and bounded-cardinality claims are otherwise
    unjustified). The index-less fallback needs no index: it sorts. *)

val rank_rule : Storage.Catalog.t -> Walk.facts -> Diag.t list
(** Driver: applies {!rank_node} at every node of the walked plan. *)

(** {2 PL14-shard — scatter/gather soundness}

    A gather-merge must sit over pairwise-distinct remote shard streams;
    when it cuts at [k], every shard needs a pushed bound [k' >= k]
    (under hash partitioning a single shard can hold all [k] winners);
    when it claims a merge order, every shard stream must be sorted by
    the same score (the threshold-style cutoff reads a shard's last
    streamed score as an upper bound for the rest of that stream). *)

val shard_node : Walk.facts -> Diag.t list

val shard_rule : Walk.facts -> Diag.t list

(** {2 PL15-vector — batched/streaming boundary soundness}

    The executor runs {!Core.Vectorize.spine_ok} subplans and the fused
    sort+limit top-k sink batch-at-a-time; rank joins must never fall
    inside such a region (batching would quantize rank-join
    early-out depths to batch boundaries), and the [Vectorized] property
    bit stored in the MEMO must match recomputation over the plan
    shape. *)

val check_vector_spine :
  path:string ->
  spine:bool ->
  fused:bool ->
  has_rank_join:bool ->
  Diag.t list
(** Pure checker over the claims and independently derived facts: a
    claimed batched region ([spine] or [fused]) must not contain a rank
    join. *)

val check_vector_bit : path:string -> recomputed:bool -> bool -> Diag.t list
(** Pure checker: the stored Vectorized property bit equals the recomputed
    {!Core.Vectorize.vectorized} verdict. *)

val vector_node : Walk.facts -> Diag.t list
(** {!check_vector_spine} with the claims and facts derived from the
    node's plan. *)

val vector_rule : ?vectorized:bool -> Walk.facts -> Diag.t list
(** Driver: applies {!vector_node} at every node; when a stored
    [vectorized] property bit is supplied (memo/cache) it must equal
    {!Core.Vectorize.vectorized} of the plan. *)
