(** Rank-join operators: HRJN and NRJN (Section 2.2 of the paper).

    Both join their inputs while {e progressively} producing join results in
    non-increasing combined-score order, stopping early once the reported
    results are guaranteed final by the threshold bound. Both require a
    monotone combining function.

    Instrumentation exposes exactly the quantities the paper's estimation
    model predicts, through the shared {!Exec_stats.t} record (input [i] is
    the [i]-th HRJN input; NRJN's outer is input 0, its inner input 1): the
    {e depth} consumed from each input (Figures 13-14) and the high-water
    mark of the internal result buffer (Figure 15). *)

open Relalg

type input = {
  stream : Operator.scored;  (** Sorted access: non-increasing scores. *)
  key : Tuple.t -> Value.t;  (** Equi-join key extraction. *)
}

type polling =
  | Adaptive
      (** The engine's rule, and the default. Poll the first live input
          that has produced nothing yet; after that, the live input whose
          threshold term (see {!hrjn}) is largest, since that term is the
          threshold and pulling its input is what lowers it. A NaN term
          counts as the largest; ties go to the lowest index. An input
          whose scores fall steeply stops early while the flattest input
          is read as deep as round-robin reads it; on uniform scores the
          inputs' score decrements even out, the stop
          [Core.Depth_model.threshold_depths] models. *)
  | Alternate
      (** Round-robin over the live inputs: the reference the polling
          ablation and tests compare against. *)

val hrjn :
  ?stats:Exec_stats.t ->
  ?polling:polling ->
  combine:(float -> float -> float) ->
  inputs:input list ->
  unit ->
  Operator.scored * Exec_stats.t
(** Hash rank-join over m ≥ 2 inputs sharing one equi-join key: a hash
    table per input over the tuples seen so far plus a priority queue of
    buffered results. A result's score is [combine] folded left over its
    parts in input order, and its tuple concatenates the parts in input
    order. A result is reported once its score is at least the threshold:
    the maximum over live inputs [i] of that fold with [last_i] in place of
    [top_i] — at m = 2, [max (f(last_0, top_1), f(top_0, last_1))].
    A tuple whose key is NULL joins nothing ({!Join_key}): it still counts
    toward its input's depth and last score, but is neither inserted nor
    probed.
    When [stats] is supplied (e.g. a metrics-registry record) the operator
    reports into it and returns it; it must have been created for m inputs.
    @raise Invalid_argument for fewer than 2 inputs. *)

val nrjn :
  ?stats:Exec_stats.t ->
  combine:(float -> float -> float) ->
  pred:Expr.t ->
  outer:Operator.scored ->
  inner:Operator.t ->
  inner_score:(Tuple.t -> float) ->
  unit ->
  Operator.scored * Exec_stats.t
(** Nested-loops rank-join: the outer input must provide sorted access; the
    inner is fully re-scanned per outer tuple under an arbitrary join
    predicate (input 1's depth reports the deepest inner pass). State is
    only the priority queue; the threshold is [f(last_outer, top_inner)]. *)
