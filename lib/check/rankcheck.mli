(** Seed-deterministic differential fuzzing for the ranking pipeline.

    Each case generates random tables and a random top-k query, computes the
    answer with a naive oracle (materialize the full join in relalg, score,
    sort with a total order, take k), then enumerates every plan the
    optimizer memo retains — rank-join and join-then-sort shapes, all join
    orders, HRJN/NRJN variants, across enumerator configurations — executes
    each one, and asserts:

    - the planlint structural and estimate rules ({!Lint.Engine.lint_plan})
      report no errors on any plan;
    - the plan's top-k score multiset equals the oracle's;
    - no rank join reads past an exhausted-empty input, and every observed
      input depth stays within the Theorem-2 depth model (with slack for
      estimation error).

    Failing cases auto-shrink (drop table rows, then query conjuncts, then
    reduce k) and carry a verbatim replay command. Case [i] of
    [run ~seed ~cases] is exactly case [0] of [run ~seed:(seed + i) ~cases:1],
    so a single integer reproduces any failure. *)

type table_spec = {
  t_name : string;
  t_key_domain : int;
  t_dist : Workload.Dist.t;
  t_rows : (int * int * float) list;  (** (id, key, score) *)
}

type case = {
  c_seed : int;
  c_tables : table_spec list;
  c_query : Sqlfront.Ast.query;
}

type failure = {
  f_seed : int;
  f_reason : string;
  f_plan : string option;  (** [Plan.describe] of the offending plan *)
  f_case : case;  (** auto-shrunk minimal counterexample *)
  f_replay : string;  (** verbatim CLI command reproducing the failure *)
}

type outcome = {
  o_cases : int;
  o_plans : int;  (** plans executed and compared across all cases *)
  o_failures : failure list;
}

val gen_case : int -> case
(** Deterministically generate the test case for a seed: 2–3 tables with
    skewed/tied/empty data and a conjunctive top-k join query over them. *)

val build_catalog : case -> Storage.Catalog.t
(** Materialize a case's tables (with score and key indexes) into a fresh
    catalog. *)

val check_case : case -> (int, string * string option) result
(** Run the full differential check for one case. [Ok n] means all [n]
    enumerated plans agreed with the oracle and passed every invariant;
    [Error (reason, plan)] describes the first divergence. *)

val shrink : case -> case
(** Greedily minimize a failing case while it keeps failing. *)

val run : ?progress:(int -> unit) -> seed:int -> cases:int -> unit -> outcome
(** Check [cases] consecutive seeds starting at [seed]. [progress] is called
    with the 0-based case index before each case. *)

val pp_failure : Format.formatter -> failure -> unit

(** {2 Lint-only mode}

    Static sweep: optimizes each case with the emit-time lint mode enabled
    (every MEMO-retained subplan is checked as it is stored), then runs the
    full planlint catalog over every finished plan and the optimizer's
    chosen statement — nothing is executed. This is what
    [rankopt lint --fuzz-seed] and [make lint] drive. *)

val lint_case : case -> (int, string * string option) result
(** [Ok n]: [n] plans linted with zero diagnostics. *)

val run_lint : ?progress:(int -> unit) -> seed:int -> cases:int -> unit -> outcome
(** Like {!run}, but [o_plans] counts plans linted. *)

(** {2 Server mode}

    Replays generated queries through a live {!Server.Listener} instead of
    enumerating plans: each case's query is [PREPARE]d with [LIMIT ?] and
    [EXECUTE]d twice at two different [k] values against an in-process
    server (worker domains, plan cache, wire protocol), comparing score
    multisets with direct single-threaded execution of the same template.
    The second replay at each [k] must additionally be served from the
    plan cache. *)

val run_server : ?progress:(int -> unit) -> seed:int -> cases:int -> unit -> outcome
(** Like {!run}, but [o_plans] counts server executions checked (plus
    plan-cache entries audited). *)

(** {2 Vector mode}

    Batched-execution differential check: every MEMO-retained plan of each
    case is executed twice — tuple-at-a-time ([Executor.run
    ~vectorized:false], the pre-batching interpreter) and batch-at-a-time
    (the default) — and the two runs must be {e bit identical}: same
    tuples, same scores, same order, no tolerance (the batch kernels
    replicate the scalar expression interpreter exactly, including Null
    propagation and NaN ordering). Rank-join nodes must additionally
    report identical per-input depth counters and emitted counts across
    the two runs, proving the vectorized spines never change how far a
    streaming rank join reads. This is what [rankopt fuzz --vector]
    drives. *)

val run_vector : ?progress:(int -> unit) -> seed:int -> cases:int -> unit -> outcome
(** Like {!run}, but [o_plans] counts vectorized/serial plan pairs
    compared. *)

(** {2 Enumeration mode}

    Ranked-enumeration differential check for the cursor path: each case's
    query is [PREPARE]d against an in-process {!Server.Service},
    [EXECUTE]d at its k, then [FETCH]ed in deterministically varied batch
    sizes until exhaustion. Every growing prefix must be {e tuple-exact}
    — same rows, same scores, same order, including ties — against a full
    ranked-list oracle (naive join, NaN-scored answers dropped, sorted
    score-descending with canonical-column tie order, exactly the cursor
    normalization contract). Enum cases snap all scores to the 1/8 grid so
    totals are exact dyadic rationals and bit-identical across plan
    shapes; a sixteenth of the rows carry NaN scores. Exhaustion must land
    exactly at the oracle's row count and a further fetch must return no
    rows. Non-enumerable statements must leave no cursor behind. This is
    what [rankopt fuzz --enum] drives. *)

val enum_case : int -> case
(** {!gen_case} with scores snapped to the 1/8 grid and occasional NaNs. *)

val run_enum : ?progress:(int -> unit) -> seed:int -> cases:int -> unit -> outcome
(** Like {!run}, but [o_plans] counts prefix checks. *)

(** {2 Rank mode}

    By-rank window differential check for the order-statistic access
    paths: each case is a single scored table (1/8-grid scores forcing tie
    blocks, a sixteenth NaN-scored) with a [WHERE rank() BETWEEN lo AND hi]
    window, occasionally with a residual filter and windows overshooting
    the cardinality. Both physical variants — counted index descent and
    drain-sort-slice — are linted and executed against a sort-everything
    oracle (NaN dropped, competition ranking, canonical tie order), then
    the printed query re-enters through the parser and the optimizer's own
    cost arbitration. Every result must be tuple-exact. This is what
    [rankopt fuzz --rank] drives. *)

val rank_case : int -> case
(** Deterministic single-table by-rank window case for a seed. *)

val run_rank : ?progress:(int -> unit) -> seed:int -> cases:int -> unit -> outcome
(** Like {!run}, but [o_plans] counts window executions compared. *)

(** {2 Shard mode}

    Differential check for the distributed scatter/gather coordinator:
    each case's top-k join runs on a single node and through an
    in-process cluster of [shards] engine shards hash-partitioned on
    [key] (generated joins are always on [key], so every case must
    scatter). The sharded answer must carry the single-node score
    sequence (to within float association jitter across plan shapes),
    tuple-exact rows above the k-th score, and boundary rows
    drawn from the oracle's k-th-score tie group; a routed [INSERT]
    through the coordinator followed by a re-query checks DML routing,
    scatter-cache invalidation and partitioning epochs. This is what
    [rankopt fuzz --shard N] drives. *)

val run_shard :
  ?progress:(int -> unit) -> seed:int -> cases:int -> shards:int -> unit -> outcome
(** Like {!run}, but [o_plans] counts sharded statements checked. *)
