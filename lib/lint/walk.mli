(** Typed visitor / dataflow framework over physical plans.

    [derive] runs one bottom-up dataflow pass over a {!Core.Plan.t} and
    annotates every node with independently recomputed facts: the output
    schema, the order the node can actually {e justify} from its inputs and
    its own semantics, and whether the node streams (produces first rows
    without consuming whole inputs). Rules then compare these facts against
    the properties the optimizer {e claims}
    ({!Core.Plan.order_of}, {!Core.Plan.pipelined}, MEMO property bits) —
    the whole point of the analyzer is that the facts are recomputed by a
    second implementation, so a drift in either one is caught. *)

open Relalg

type facts = {
  plan : Core.Plan.t;
  path : string;  (** e.g. ["root/left/input"]. *)
  schema : Schema.t option;
      (** Output schema; [None] when an unknown table makes it underivable
          (the schema rule reports the root cause). *)
  produced : Core.Plan.order option;
      (** The strongest order this node's semantics can justify, given the
          orders its inputs justify. [None] = no order guarantee. *)
  streaming : bool;
      (** Recomputed pipelining property: no blocking operator on the
          producing spine. *)
  children : facts list;
}

val children_of : Core.Plan.t -> (Core.Plan.t * string) list
(** A node's inputs, each with the segment [derive] appends to the
    node's path for it ([input], [left]/[right], [in0]..., [shard0]...). *)

val derive : Storage.Catalog.t -> Core.Plan.t -> facts

val table_schema : Storage.Catalog.t -> string -> Schema.t option
(** The catalog schema of a base table; [None] for unknown tables (never
    raises — the schema rule reports the root cause). *)

val iter : (facts -> unit) -> facts -> unit
(** Pre-order traversal of the annotated tree. *)

val fold : ('a -> facts -> 'a) -> 'a -> facts -> 'a

(** {2 Static expression typing}

    A small type checker mirroring {!Relalg.Expr.eval}'s dynamic semantics:
    arithmetic needs numeric operands, comparisons need operands of one
    family, boolean connectives need booleans. *)

type family = Fnum | Fstring | Fbool | Fany  (** [Fany]: a NULL literal. *)

val type_of : Schema.t -> Expr.t -> (family, string) result
(** [Error] describes the first ill-typed or unbound subexpression. *)

val check_predicate : Schema.t -> Expr.t -> (unit, string) result
(** The expression must type to [Fbool] (or [Fany]). *)

val check_numeric : Schema.t -> Expr.t -> (unit, string) result
(** The expression must type to [Fnum] (or [Fany]) — sort keys, scores. *)
