(** Top-level facade: optimize a logical query and execute the chosen plan.

    This ties the framework together: interesting-order derivation, DP
    enumeration with rank-aware pruning, depth/cost estimation, and the
    instrumented executor. *)

type k_interval = { k_lo : int; k_hi : int option }
(** The contiguous range of [k] on which a chosen plan stays the winner
    ([k_hi = None] means "up to full output"). Derived from the optimizer's
    k{^*} crossover comparisons at the root MEMO entry: outside the
    interval, a re-optimization would pick a different plan (Section 4.3's
    regime flip between rank-join and join-then-sort plans). *)

type planned = {
  query : Logical.t;
  plan : Plan.t;
  est : Cost_model.estimate;
  stats : Enumerator.stats;
  interesting : Interesting_orders.interesting_order list;
  env : Cost_model.env;
  k_validity : k_interval;
      (** Range of [k] on which [plan] remains the optimizer's choice —
          the plan cache's reuse condition for rebinding [k]. *)
  enumerable : bool;
      (** The Enumerate plan property: the root is a Top-k over a
          resumable stream (see {!Enumerate.eligible}), so the statement
          can back a cursor and keep streaming ranked answers past [k].
          Invariant under {!rebind_k} (only the Top-k limit changes). *)
}

val planned_hook : (planned -> unit) ref
(** Called with every statement [optimize] finishes planning. Defaults to a
    no-op; the planlint emit-time assertion mode installs itself here. *)

val optimize :
  ?config:Enumerator.config ->
  ?env:Cost_model.env ->
  Storage.Catalog.t ->
  Logical.t ->
  planned
(** Choose the best plan.
    @raise Failure when the query yields no plan (e.g. no relations). *)

val k_in_validity : planned -> int -> bool
(** Whether rebinding the query's [k] to the given value keeps the plan
    optimal (no re-optimization needed). *)

val pp_k_interval : Format.formatter -> k_interval -> unit

val rebind_k : planned -> int -> planned
(** Reuse the plan shape with a new [k]: the Top-k limit is replaced and
    the environment's [k] updated so {!execute} re-runs depth propagation
    ([Propagate]) at the new [k]. The caller is responsible for checking
    {!k_in_validity} first — outside the validity interval the rebound plan
    still answers correctly but is no longer the optimizer's choice.
    Unranked plans are returned unchanged.
    @raise Invalid_argument when [k <= 0]. *)

val execute :
  ?interrupt:(unit -> bool) ->
  ?vectorized:bool ->
  ?fetch_limit:int ->
  Storage.Catalog.t ->
  planned ->
  Executor.run_result
(** Run the chosen plan. For ranking queries the plan already contains the
    Top-k limit. [interrupt] is the cooperative deadline hook, checked at
    operator [next()] boundaries (see {!Executor.run}). [vectorized]
    (default on) selects batch-at-a-time execution of the plan's vector
    spines (see {!Executor.compile}). *)

val run_query :
  ?config:Enumerator.config ->
  Storage.Catalog.t ->
  Logical.t ->
  planned * Executor.run_result
(** [optimize] + [execute]. *)

val explain : planned -> string
(** Human-readable plan with cost, properties and depth propagation. *)

val execute_analyzed :
  ?vectorized:bool ->
  ?fetch_limit:int ->
  Storage.Catalog.t ->
  planned ->
  string * Executor.run_result
(** Run the plan under a fresh {!Exec.Metrics} registry and render the
    {!Analyze} tree: per-operator observed depths vs the depth model's
    predictions, and actual vs estimated I/O. *)

val explain_analyze :
  ?vectorized:bool ->
  ?fetch_limit:int ->
  Storage.Catalog.t ->
  planned ->
  string * Executor.run_result
(** [execute_analyzed] with a query/row-count/total-I/O header — the body of
    the CLI's [analyze] command. *)
