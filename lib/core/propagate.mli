(** Propagating the required number of results down a plan — Figure 8.

    In a pipeline of rank-joins, the input depth of an operator is the
    required number of ranked results of its child (Figure 4: k = 100 at the
    top becomes 580 at the child join, which needs 783 of {e its} inputs).
    [run] annotates every node of a plan with its required output count and,
    for rank-join nodes, the estimated depth of every input, from
    {!Cost_model.rank_join_depths} (the depths the node is costed at). Each
    input is then required to produce its depth; NRJN's inner is required
    in full, as it is re-scanned per outer tuple. *)

type annotation = {
  node : Plan.t;  (** The subplan rooted here. *)
  required : float;  (** Output rows this node must produce. *)
  depths : float array option;
      (** Rank-join nodes only: one depth per input (NRJN: outer first). *)
  children : annotation list;
}

val run : Cost_model.env -> k:int -> Plan.t -> annotation

val rank_join_annotations : annotation -> (Plan.t * float * Depth_model.depths) list
(** The binary rank-join nodes (HRJN over two inputs and NRJN), pre-order:
    (node, required k, estimated depths). Nodes over three or more inputs
    are left out. *)

val pp : Format.formatter -> annotation -> unit
