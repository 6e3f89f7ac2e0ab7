(** Cost estimation for plans, including rank-aware partial costs.

    Traditional operators are costed on full-input formulas (scan pages,
    external-sort passes, hash/merge/NL joins). Rank-join operators are the
    novelty (Section 3.3): their cost depends on how many ranked results [k]
    are pulled from them, via the estimated input depths of {!Depth_model}.
    Every estimate therefore carries both a total cost and a [cost_at]
    function; for blocking plans the two coincide. Costs are in page-I/O
    units with a small CPU term (0.002 per tuple). Sort memory, merge
    fan-in and the nested-loops block are the executor operators' own
    defaults ({!Exec.Sort.default_memory_tuples},
    {!Exec.Sort.default_fan_in}, {!Exec.Join.default_block_size}). *)

open Relalg

type env = {
  catalog : Storage.Catalog.t;
  query : Logical.t;
  k_min : int;  (** The k of the query: minimum any subplan will be asked. *)
}

val default_env : ?k_min:int -> Storage.Catalog.t -> Logical.t -> env

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

val estimate_with : child:(Plan.t -> estimate) -> env -> Plan.t -> estimate
(** The estimate of the plan's root operator alone: each input is
    estimated by [child input]. [estimate env p] is [estimate_with env p]
    with a [child] that recurses the same way. The optimizer's memo passes
    a [child] that returns the stored estimates of subplans it already
    holds, so a candidate costs one node, not its whole subtree. *)

val filter_selectivity : env -> Expr.t -> float
(** Histogram-based when the predicate is a comparison of a column with a
    constant; 1/3 heuristic otherwise. (Purely syntactic over the
    predicate — it deliberately takes no schema, so Filter estimates need
    no [Plan.schema_of] rebuild of the whole subtree.) *)

val join_selectivity : env -> Logical.join_pred -> float

val rank_join_depths : env -> Plan.t -> k:float -> float array
(** The depths the model predicts a rank-join node reads from each of its
    inputs to produce its top [k], each clamped to the input's estimated
    rows. [plan] is a {!Plan.Rank_join} (one depth per input) or an NRJN
    [Join] (outer depth first). Every arity takes
    {!Depth_model.threshold_depths}, the stop of threshold polling: an
    HRJN over two single ranked base relations with histogram score slabs
    counts each input's tuples per unit of score from its slab; every
    other input (and NRJN's outer) counts its estimated rows over a unit
    score range per ranked base relation. The estimate of a rank join
    costs its inputs at these same depths. *)

val any_k_depths_for :
  env -> k:float -> cond:Logical.join_pred -> left:Plan.t -> right:Plan.t
  -> Depth_model.depths
(** The "Any-k" lower-bound estimate (step 1 only), reported alongside the
    top-k estimate in Figures 13-14. *)

val worst_case_depths_for :
  env -> k:float -> cond:Logical.join_pred -> left:Plan.t -> right:Plan.t
  -> Depth_model.depths
(** The worst-case bound of Equations 2-5 over the same parameters,
    clamped to the inputs: the certification bound reported beside the
    threshold depths in the depth-model ablation. *)

val k_star : env -> rank_plan:Plan.t -> sort_plan:Plan.t -> float option
(** The crossover k* at which the (k-dependent) rank plan's cost equals the
    (k-independent) sort plan's total cost; [None] when the rank plan is
    cheaper over the whole feasible range [\[1, rows\]] (i.e. k* > n{_a}). *)
