(** Seed-deterministic differential fuzzing for the ranking pipeline.

    One runner checks every mode. A {!mode} is one entry of a table that
    pairs a case generator with an execution (the answer under test) and
    the {!oracle} that answer must agree with. Every check starts the same
    way: materialize the case's tables (with score and key indexes) and
    bind its query. Every plan-level execution lints each plan with the
    full planlint catalog ({!Lint.Engine.lint_plan}) before running it.

    The reference list is usually the naive ranked list: materialize the
    full join in relalg, score every row with the query's expression, drop
    NaN totals, sort score-descending and break exact ties by the
    canonical column order (the cursor normalization contract).

    Case [i] of [run mode ~seed ~cases] is exactly case [0] of
    [run mode ~seed:(seed + i) ~cases:1], so one integer and the mode's
    replay command reproduce any failure. Modes marked {e shrinks}
    minimize a failing case (drop table rows, then non-join conjuncts,
    then reduce k) before reporting it. *)

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
  f_case : case;  (** the shrunk counterexample in modes that shrink *)
  f_replay : string;  (** verbatim CLI command reproducing the failure *)
}

type outcome = {
  o_cases : int;
  o_plans : int;  (** checks passed across all cases; see {!noun} *)
  o_failures : failure list;
}

(** {1 Case generators} *)

val gen_case : int -> case
(** Deterministically generate the test case for a seed: 2–3 tables with
    skewed/tied/empty data and a conjunctive top-k join query over them. *)

val enum_case : int -> case
(** {!gen_case} with scores snapped to the 1/8 grid (so every weighted
    total is an exact dyadic rational, bit-identical across plan shapes)
    and a sixteenth of the rows NaN-scored. *)

val rank_case : int -> case
(** A single scored table, snapped like {!enum_case}, with a
    [WHERE rank() BETWEEN lo AND hi] window, occasionally with a residual
    filter, dense numbering, or a window overshooting the cardinality. *)

val build_catalog : case -> Storage.Catalog.t
(** Materialize a case's tables (with score and key indexes) into a fresh
    catalog. *)

(** {1 Oracles} *)

type oracle =
  | Scores of (float -> float -> bool)
      (** The k-prefix's score multiset, paired in sorted order under the
          given closeness. Row identity is not compared: any row tied at
          the k-th score is a correct answer. *)
  | Exact  (** Same tuples, bit-equal scores, same order. *)
  | Top_k
      (** Scores non-increasing and within a relative 1e-6 (float
          association jitter across plan shapes) of the k-prefix's; rows
          above the k-th score tuple-exact as a multiset; rows at the k-th
          score drawn from the reference's tie group. *)

val agree :
  oracle ->
  k:int ->
  expected:(Relalg.Tuple.t * float) list ->
  got:(Relalg.Tuple.t * float) list ->
  (unit, string) result
(** [agree oracle ~k ~expected ~got]: does [got] answer the top [k] of the
    reference list [expected]? Every oracle requires [got] to have exactly
    as many rows as [expected]'s k-prefix. *)

(** {1 The mode table}

    {2 Plain: [rankopt fuzz]}

    Generator {!gen_case}. Every plan the optimizer memo retains, under
    three enumerator configurations (rank-aware × first-rows, plus
    traditional), is linted and run through [Executor.run]. Its rows,
    re-scored with the query's own expression, must satisfy [Scores]
    within a relative 1e-6 against the naive list, and every rank-join
    node must not read past an exhausted-empty input and must stop within
    the Theorem-2 corner depth simulated on its actual input streams
    (2·d* + 8). Counts plans. Shrinks.

    {2 Vector: [rankopt fuzz --vector]}

    Generator {!gen_case}. Every retained plan is linted, then run
    tuple-at-a-time ([~vectorized:false]) and batch-at-a-time; the
    vectorized rows must be [Exact] against the tuple-at-a-time ones, and
    rank-join depth and emitted counters must match. Counts plan pairs.
    Shrinks.

    {2 Enum: [rankopt fuzz --enum]}

    Generator {!enum_case}. The query is PREPAREd in a [Service] session,
    EXECUTEd at its k, then FETCHed in deterministically varied batch
    sizes; every prefix must be [Exact] against the naive list, exhaustion
    must land at its length, and a further FETCH must return nothing. A
    statement that is not cursor-eligible must park no cursor. Counts
    prefixes. Shrinks.

    {2 Rank: [rankopt fuzz --rank]}

    Generator {!rank_case}. Both physical variants of the window (counted
    index descent and drain-sort-slice) are linted and run, then the
    printed query re-enters through the parser and the optimizer's cost
    arbitration; each answer must be [Exact] against the naive list's
    window (competition or dense numbering, residual filter applied
    inside the window). Counts window executions. Shrinks.

    {2 Server: [rankopt fuzz --server]}

    Generator {!gen_case}. A live [Listener] over a Unix socket: PREPARE
    with [LIMIT ?], then EXECUTE twice at two k values, each reply's wire
    scores satisfying [Scores] within an absolute 1e-5 (wider than the
    wire's 6-decimal rendering) against the naive list; the second
    EXECUTE at each k must be a plan-cache hit, and every cached variant
    must then pass the planlint cache rule (PL10). Counts executions plus
    audited cache entries. Does not shrink.

    {2 Shard: [rankopt fuzz --shard N]}

    Generator {!gen_case}. The query runs through the coordinator of an
    in-process cluster of N shards hash-partitioned on [key]; it must
    scatter and satisfy [Top_k] against the naive list. A routed [INSERT]
    through the coordinator then re-checks the query against the mutated
    data. Counts sharded statements. Does not shrink.

    {2 Lint: [rankopt lint --fuzz-seed S]}

    Generator {!gen_case}. Optimizes with emit-time linting on (every
    subplan the memo retains is checked as it is stored), then lints every
    finished plan and the optimizer's chosen statement; nothing is
    executed and no oracle is consulted. Counts plans linted. Does not
    shrink: a diagnostic already names its plan path. *)

type mode

val plain : mode
val vector : mode
val enum : mode
val rank : mode
val server : mode

val shard : int -> mode
(** Shard mode over [n] shards. *)

val lint : mode

val modes : mode list
(** Every mode, shard mode at 4 shards. *)

val title : mode -> string
(** ["vector mode"], ["shard mode, 4 shards"], ...; [""] for plain mode.
    Failure reasons carry it as a prefix. *)

val noun : mode -> string
(** What {!outcome.o_plans} counts in this mode. *)

val oracle : mode -> oracle option
(** The oracle the mode's execution answers to; [None] for lint. *)

val replay : mode -> int -> string
(** [replay mode seed]: the CLI command checking exactly that seed,
    [rankopt fuzz [--vector|--enum|--rank|--server|--shard N] --seed S
    --cases 1] or [rankopt lint --fuzz-seed S --fuzz-cases 1]. *)

val mode_of_flags : string list -> (mode, string) result
(** The mode a command line selects, from its subcommand and mode flags:
    [["fuzz"]], [["fuzz"; "--enum"]], [["fuzz"; "--shard"; "4"]],
    [["lint"]]. Two mode flags at once, or a shard count below 2, are an
    [Error]. *)

(** {1 Running} *)

val check : mode -> case -> (int, string * string option) result
(** Check one case. [Ok n]: [n] checks passed; [Error (reason, plan)]
    describes the first divergence. *)

val shrink : mode -> case -> case
(** Greedily minimize a case while {!check} keeps failing on it. *)

val run :
  ?progress:(int -> unit) -> mode -> seed:int -> cases:int -> unit -> outcome
(** Check [cases] consecutive seeds starting at [seed]. [progress] is called
    with the 0-based case index before each case. *)

val pp_failure : Format.formatter -> failure -> unit
