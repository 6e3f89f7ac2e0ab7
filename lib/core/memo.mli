(** The MEMO structure of bottom-up dynamic-programming enumeration.

    One entry per subset of the query's relations (keyed by bitmask); each
    entry holds the non-pruned subplans, at most one per property class.
    Pruning implements Section 3.3:

    - a subplan is pruned by a cheaper subplan with the same or stronger
      properties (order, pipelining);
    - comparisons between a k-dependent rank-join plan and a k-independent
      (blocking sort) plan use the crossover k{^*}: the sort plan is pruned
      when the rank plan wins over the whole feasible range (k* > n{_a});
      the rank plan is pruned when the sort plan already wins at
      [k = k_min] and the rank plan has no pipelining advantage; otherwise
      both are retained. *)

type subplan = {
  plan : Plan.t;
  est : Cost_model.estimate;  (** As {!Cost_model.estimate}. *)
  order : Plan.order option;
  key : Plan.order_key option;  (** [order]'s key, for dominance tests. *)
  pipelined : bool;
  vectorized : bool;
      (** Vectorized-execution property bit: {!Vectorize.vectorized}
          — whether the executor runs any of the plan batch-at-a-time.
          Stored so EXPLAIN, the plan cache and planlint's PL15 see the
          property of the plan the memo kept. *)
  at_k_min : float;  (** [est.cost_at k_min]: the {!decision_cost}. *)
  at_full : float;
      (** [est.cost_at (max 1 rows)] for a k-dependent plan, its total
          cost otherwise: what a rank plan costs at full output. *)
}

val subplan_of : ?children:subplan list -> Cost_model.env -> Plan.t -> subplan
(** Compute a plan's estimate and properties. Subtrees that are physically
    one of [children] reuse that subplan's stored estimates, so a join
    candidate built over two memo subplans costs only its own nodes. The
    result is the same as without [children]. *)

type t

val create : unit -> t

val add : t -> first_rows:bool -> key:int -> subplan -> bool
(** Insert with pruning; [false] when the plan was pruned on arrival. With
    [first_rows:false], pipelining is not a protected property (plain System
    R behaviour). Every call counts toward {!generated}. *)

val plans : t -> int -> subplan list
(** Retained plans of an entry (empty list for an absent entry). *)

val entry_keys : t -> int list

val retained : t -> int
(** Total retained plans across all entries — the quantity Figures 2 and 3
    compare. *)

val generated : t -> int
(** Total plans ever offered to {!add}. *)

val decision_cost : subplan -> float
(** The cost used for same-kind comparisons: [cost_at k_min]. *)

val best : t -> ?order:Plan.order -> int -> subplan option
(** Cheapest retained plan of an entry, optionally restricted to plans
    producing the given order. *)

val pp_entry : Format.formatter -> subplan list -> unit
