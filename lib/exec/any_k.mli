(** anyK-style ranked enumeration over an acyclic path/star join tree.

    Unlike the rank-join family — which stops producing once its Top-k
    consumer is satisfied — this operator can stream {e every} join answer
    in non-increasing total-score order with bounded per-result delay, so a
    cursor can keep fetching past the original k without re-executing.

    The algorithm follows the anyK dynamic-programming line of work
    (Tziavelis et al.): materialize each input, run one bottom-up pass that
    prunes dangling tuples and tags every survivor with the best total
    score of its subtree, group tuples by join key with a maximum of that
    bound at the head of each group, then enumerate with a Lawler-style
    candidate heap where each popped answer spawns at most [m] successors.
    A group's tail is put in order only as far as enumeration reaches
    into it.

    NaN partial scores are pruned at build time (an answer containing one
    would have a NaN total, which has no place in a ranked order); the
    emitted stream is therefore totally ordered and non-increasing. A tuple
    whose join key is NULL joins nothing ({!Join_key}) and is pruned as
    dangling. *)

open Relalg

type input = {
  i_op : Operator.t;  (** Base access plan, opened and drained at build. *)
  i_score : Tuple.t -> float;  (** Weighted partial score of this input. *)
}

val enumerate :
  ?stats:Exec_stats.t ->
  ?tick:(unit -> unit) ->
  schema:Schema.t ->
  inputs:input list ->
  keys:(int * (Tuple.t -> Value.t) * (Tuple.t -> Value.t)) list ->
  unit ->
  Operator.scored
(** [enumerate ~schema ~inputs ~keys ()] builds the enumeration stream.
    Input 0 is the join-tree root; for input [i >= 1], [keys] entry [i-1]
    is [(parent, parent_key, child_key)] binding it to input
    [parent < i] by equality of the two key extractors. The output tuple
    is the concatenation of one tuple per input, in input order; [schema]
    must be the matching concatenated schema.

    [tick] is invoked at least every 256 tuples in every build loop and on
    every candidate expansion — the executor uses it for cooperative
    interruption (deadlines firing mid-build or mid-fetch).

    [stats] (created for m inputs) receives the tuples drained from each
    input as its depth, the answers emitted, and as buffer the high-water
    of survivors plus queued candidates. It is reset by [s_open].

    The stream is resumable: after [s_open], repeated [s_next] calls keep
    yielding answers in score order until the full join result is
    exhausted; [s_next] after exhaustion returns [None] without touching
    the (already drained) inputs. *)

type counts = {
  drained : int;  (** Tuples read from all inputs. *)
  survivors : int;  (** Tuples left after dangling and NaN pruning. *)
  groups : int;  (** Join-key groups over all nodes; the root is one. *)
  groups_sorted : int;
      (** Groups of 3 or more whose tail enumeration reached, and so had to
          order (heapify, then pop slot by slot). *)
}

val enumerate_counted :
  ?stats:Exec_stats.t ->
  ?tick:(unit -> unit) ->
  schema:Schema.t ->
  inputs:input list ->
  keys:(int * (Tuple.t -> Value.t) * (Tuple.t -> Value.t)) list ->
  unit ->
  Operator.scored * (unit -> counts)
(** {!enumerate}, plus a reading of the build's counts since the last
    [s_open] (for benchmarks). *)
