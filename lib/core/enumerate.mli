(** Ranked-enumeration (anyK) eligibility and plan construction.

    This module decides two related properties:

    - which {e logical} queries admit an {!Plan.Any_k} plan (acyclic
      path/star join trees with every relation ranked), and
    - which finished {e physical} plans can back a cursor — the
      [Enumerate] plan property checked by the server before it keeps a
      statement open for [FETCH NEXT].

    A plan is {e resumable} when the stream under its root Top-k produces
    the query's exact scoring order and keeps producing when pulled past
    k. Rank joins, anyK and a final [Sort] qualify; a nested [Top_k] does
    not (it truncates the stream at its own k). *)

type shape = [ `Path | `Star ]

val shape_name : shape -> string

val shape_of : Logical.t -> shape option
(** Classify the query's join graph: [`Path] when every relation has at
    most two join partners, [`Star] when one center joins all [n-1]
    others. [None] for single relations, cycles, duplicate edges between
    a pair, or any other shape. *)

val any_k_plan : Logical.t -> Plan.t option
(** The {!Plan.Any_k} candidate for an eligible query: one (filtered)
    scan per relation in join-tree DFS order, per-relation weighted
    scores, and one key binding per edge. [None] unless the query is
    ranking, every relation is ranked with positive weight, and
    {!shape_of} recognizes the join graph. *)

val resumable : Logical.t -> Plan.t -> bool
(** Can this stream (a plan with its root Top-k already stripped) back a
    cursor? True when it is Top-k-free and its output
    order satisfies the query's descending total score. *)

val eligible : Logical.t -> Plan.t -> bool
(** The Enumerate property of a finished statement plan: a ranking query
    whose root is a [Top_k] over a {!resumable} stream. *)
