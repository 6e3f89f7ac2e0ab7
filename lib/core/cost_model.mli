(** Cost estimation for plans, including rank-aware partial costs.

    Traditional operators are costed on full-input formulas (scan pages,
    external-sort passes, hash/merge/NL joins). Rank-join operators are the
    novelty (Section 3.3): their cost depends on how many ranked results [k]
    are pulled from them, via the estimated input depths of {!Depth_model}.
    Every estimate therefore carries both a total cost and a [cost_at]
    function; for blocking plans the two coincide. Costs are in page-I/O
    units with a small CPU term. *)

open Relalg

type env = {
  catalog : Storage.Catalog.t;
  query : Logical.t;
  k_min : int;  (** The k of the query: minimum any subplan will be asked. *)
  cpu_factor : float;  (** I/O-unit cost of processing one tuple. *)
  memory_tuples : int;  (** Sort memory, in tuples. *)
  sort_fan_in : int;
  nl_block_tuples : int;
  depth_mode : [ `Average | `Worst ];
      (** Which closed form to use; default [`Worst] — the operator's
          threshold-based stopping tracks the certification (worst-case)
          bound, cf. EXPERIMENTS.md. *)
  dop : int;
      (** Workers available for intra-query parallelism; [1] (the
          default) disables exchange generation entirely. *)
  exchange_startup : float;
      (** Fixed I/O-unit charge per exchange (pump scheduling, slot
          setup): keeps small inputs serial. *)
  remote_startup : float;
      (** Fixed I/O-unit charge per remote shard touched by a gather
          (connection round-trip, shard-side prepare). *)
  remote_row : float;
      (** Per-row transfer charge on a remote stream (wire encode /
          decode), on top of [cpu_factor]. *)
  vector_cpu : float;
      (** Multiplier on [cpu_factor] where the executor vectorizes
          ({!Vectorize.spine_ok} subplans in bulk contexts: scans and
          filter stacks feeding sorts, hash joins and the fused top-k
          sink). The default 1.0 is behaviourally neutral — plan choices
          match the tuple-at-a-time model; a measured per-deployment
          discount (e.g. 0.25) makes spine-heavy plans proportionally
          cheaper. *)
}

val default_env :
  ?k_min:int ->
  ?cpu_factor:float ->
  ?memory_tuples:int ->
  ?sort_fan_in:int ->
  ?nl_block_tuples:int ->
  ?depth_mode:[ `Average | `Worst ] ->
  ?dop:int ->
  ?exchange_startup:float ->
  ?remote_startup:float ->
  ?remote_row:float ->
  ?vector_cpu:float ->
  Storage.Catalog.t ->
  Logical.t ->
  env

type estimate = {
  rows : float;  (** Estimated full output cardinality. *)
  total_cost : float;  (** Cost to produce every output row. *)
  cost_at : float -> float;
      (** [cost_at x]: cost to produce the first [x] output rows. Equals
          [total_cost] for blocking plans; below it for pipelined ones. *)
  k_dependent : bool;
      (** True when [cost_at] genuinely varies with x because a rank-join's
          early-out is involved. *)
}

val estimate : env -> Plan.t -> estimate
(** The plan's estimate in a bulk (draining) context, the context of a
    plan's root. *)

val estimate_with :
  child:(bool -> Plan.t -> estimate) -> bulk:bool -> env -> Plan.t -> estimate
(** The estimate of the plan's root operator alone: each input is
    estimated by [child bulk input], with [bulk] the context the operator
    gives that input. [estimate env p] is [estimate_with ~bulk:true env p]
    with a [child] that recurses the same way. The optimizer's memo passes
    a [child] that returns the stored estimates of subplans it already
    holds, so a candidate costs one node, not its whole subtree. *)

val filter_selectivity : env -> Expr.t -> float
(** Histogram-based when the predicate is a comparison of a column with a
    constant; 1/3 heuristic otherwise. (Purely syntactic over the
    predicate — it deliberately takes no schema, so Filter estimates need
    no [Plan.schema_of] rebuild of the whole subtree.) *)

val join_selectivity : env -> Logical.join_pred -> float

val rank_join_depths :
  env -> Plan.t -> k:float -> cond:Logical.join_pred -> left:Plan.t -> right:Plan.t
  -> Depth_model.depths
(** The depths the model predicts for a rank join of the two subplans at the
    given [k] — also used directly by the experiment harness. *)

val any_k_depths_for :
  env -> k:float -> cond:Logical.join_pred -> left:Plan.t -> right:Plan.t
  -> Depth_model.depths
(** The "Any-k" lower-bound estimate (step 1 only), reported alongside the
    top-k estimate in Figures 13-14. *)

val k_star : env -> rank_plan:Plan.t -> sort_plan:Plan.t -> float option
(** The crossover k* at which the (k-dependent) rank plan's cost equals the
    (k-independent) sort plan's total cost; [None] when the rank plan is
    cheaper over the whole feasible range [\[1, rows\]] (i.e. k* > n{_a}). *)
