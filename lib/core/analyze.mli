(** [EXPLAIN ANALYZE] rendering.

    Turns the executed profile tree returned by
    [Executor.run ~metrics] into an annotated plan: each operator line shows
    rows produced and buffer high-water mark; operators with inputs get a
    depths line (observed tuples consumed per input, with the depth model's
    prediction beside it when a {!Propagate.annotation} is supplied); and an
    I/O line compares the cost model's estimate (at the node's required
    output count) against pages actually read/written by the subtree. *)

val render :
  ?env:Cost_model.env ->
  ?propagation:Propagate.annotation ->
  Executor.profile ->
  string
(** [propagation] must come from [Propagate.run] on the same plan that produced
    the profile (the trees are matched positionally). Without [env] the
    estimated-cost column is omitted; without [propagation], predicted depths
    are. *)
