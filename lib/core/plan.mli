(** Physical query plans and their plan properties.

    A plan is a tree of physical operators. Two properties drive rank-aware
    pruning (Section 3.3): the {e order} a plan produces (possibly an order
    {e expression}, per Section 3.1) and whether the plan is {e pipelined}
    (First-N-Rows optimization treats pipelining as a property that protects
    a plan from being pruned by a cheaper blocking plan). *)

open Relalg

type order = { expr : Expr.t; direction : Interesting_orders.direction }

type join_algo =
  | Nested_loops
  | Index_nl  (** Probes an index on the right (single) relation. *)
  | Hash
  | Sort_merge  (** Merge step only; inputs must already be ordered. *)
  | Nrjn
      (** Nested-loops rank join: the left input is the ranked outer, the
          right is re-scanned per outer tuple. *)

type t =
  | Table_scan of { table : string }
  | Index_scan of { table : string; index : string; key : Expr.t; desc : bool }
  | Rank_index_scan of {
      table : string;
      index : string option;
      score : Expr.t;
      lo : int;
      hi : int;
      dense : bool;
    }
      (** By-rank window over a scored base table: the rows ranked
          [lo..hi] (1-based, rank 1 = best score), best first, duplicate
          scores broken by the canonical tuple order. [index = Some nm]
          walks the order-statistic B+-tree [nm] in O(log n + window);
          [index = None] is the drain-sort-slice fallback used when no
          score index exists (blocking). [dense] numbers distinct scores
          consecutively (DENSE_RANK) instead of competition ranking; a
          dense window keeps whole tie blocks. *)
  | Remote_scan of {
      shard : int;
      endpoint : string;
      sql : string;
      tables : string list;
      score : Expr.t option;
      k_bound : int option;
    }
      (** One shard's half of a scatter/gather: the pushed-down subquery
          [sql] executed remotely over [endpoint], streaming full rows in
          canonical (relation, name) column order. [score = Some _] means
          the stream is non-increasing in that score, the property the
          gather's threshold bound relies on; [k_bound] is the
          Propagate-style per-shard k' the coordinator derived (under hash
          partitioning each shard contributes at most the global k). *)
  | Gather_merge of { inputs : t list; score : Expr.t option; k : int option }
      (** Coordinator-side streaming merge of per-shard sorted streams:
          emits globally best-first using the canonical tie comparator and
          stops after [k] rows. Threshold-style early termination: a shard
          is pulled only while its last streamed score could still beat the
          current best buffered candidate, so cold shards are never
          drained. *)
  | Filter of { pred : Expr.t; input : t }
  | Sort of { order : order; input : t }
      (** Blocking sort enforcer gluing an interesting order onto a subplan. *)
  | Join of {
      algo : join_algo;
      cond : Logical.join_pred;
      left : t;
      right : t;
      left_score : Expr.t option;
          (** NRJN: score expression of the left input (weights
              included); [None] for traditional joins. *)
      right_score : Expr.t option;
    }
  | Top_k of { k : int; input : t }
      (** Stop after [k] results from a ranked input. *)
  | Rank_join of {
      inputs : t list;  (** m >= 2 inputs, each ordered on its own score. *)
      scores : Expr.t list;  (** Per-input weighted score expressions. *)
      keys : (string * string) list;
          (** Per-input [(table, column)] join key: a result combines one
              tuple of every input, all with the same key value. *)
    }
      (** HRJN over m inputs (Section 2.2): pulls its sorted inputs, buffers
          the join results and emits one once no unseen combination can
          beat it. One threshold over all inputs, so a star query on one
          shared key runs as one node instead of a binary pipeline. Its
          input depths come from {!Cost_model.rank_join_depths}. Rendered
          [HRJN] at m = 2 and [HRJN*] above. *)
  | Any_k of {
      inputs : t list;
          (** Per-relation access plans in join-tree DFS order: input 0 is
              the root; every later input joins an earlier one. *)
      scores : Expr.t list;  (** Per-input weighted partial score. *)
      keys : (int * Expr.t * Expr.t) list;
          (** For input [i >= 1], entry [i-1] is
              [(parent, parent_key, child_key)]: the equi-join binding
              input [i] to input [parent < i]. *)
      shape : [ `Path | `Star ];
    }
      (** Ranked-enumeration operator (anyK-style dynamic programming over
          an acyclic path/star join tree). Materializes and indexes its
          inputs, then streams {e every} join answer in non-increasing
          score order with bounded per-result delay — the resumable sink
          behind cursor-style [FETCH NEXT]. *)

type order_key
(** An order with its canonical (linear) form computed once. The optimizer
    keys every memo subplan and every wanted order this way, since one
    optimize compares orders thousands of times. *)

val order_key : order -> order_key

val key_equal : order_key -> order_key -> bool
(** [key_equal (order_key a) (order_key b) = order_equal a b]; allocates
    nothing. *)

val key_satisfies : have:order_key option -> want:order_key option -> bool
(** {!order_satisfies} over keys. *)

val order_equal : order -> order -> bool
(** Same direction and {!Relalg.Expr.equal} expressions. *)

val combined_score : Expr.t option -> Expr.t option -> Expr.t option
(** The score an NRJN emits: the sum of whichever side scores exist
    ([None] when neither side is scored). *)

val order_satisfies : have:order option -> want:order option -> bool
(** [true] when a plan producing [have] can serve where [want] is required
    ([want = None] is satisfied by anything). *)

val order_of : t -> order option
(** The order property of a plan's output. Hash and index-nested-loops joins
    preserve their left input's order; block nested loops destroys order;
    sort-merge emits the (ascending) left join key order; rank joins emit
    the combined score order. *)

val pipelined : t -> bool
(** Whether the plan produces its first results without consuming whole
    inputs. [Sort] is blocking; rank-joins are "almost non-blocking" and
    count as pipelined (Section 2.2); a hash join is pipelined in its probe
    (left) input. *)

val relations : t -> string list
(** Base relations covered by the plan, in schema order. *)

val has_rank_join : t -> bool

val join_count : t -> int

val schema_of : Storage.Catalog.t -> t -> Schema.t

val algo_name : join_algo -> string

val pp : Format.formatter -> t -> unit
(** Multi-line operator-tree rendering. *)

val describe : t -> string
(** One-line summary, e.g. ["HRJN(HRJN(A,B),C)"]. *)
