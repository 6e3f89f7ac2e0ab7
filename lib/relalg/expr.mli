(** Scalar expressions over tuples.

    Expressions serve three roles in the engine: selection/join predicates,
    projection targets, and — centrally for this paper — {e ranking score
    expressions}. Score expressions are linear combinations of columns
    (weighted sums); {!as_linear} recovers that canonical form, which is what
    the optimizer uses to recognise and compare interesting order
    expressions (Section 3.1 of the paper). *)

type column_ref = { relation : string option; name : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of column_ref
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t

val col : ?relation:string -> string -> t

val cfloat : float -> t

val cint : int -> t

val ( + ) : t -> t -> t

val ( - ) : t -> t -> t

val ( * ) : t -> t -> t

val ( = ) : t -> t -> t

val weighted_sum : (float * t) list -> t
(** [weighted_sum \[(w1, e1); ...\]] is [w1*e1 + ... + wn*en]. *)

val eval : Schema.t -> t -> Tuple.t -> Value.t
(** Evaluate against a tuple of the given schema.
    @raise Invalid_argument on unbound columns or type errors. *)

val eval_bool : Schema.t -> t -> Tuple.t -> bool
(** Evaluate as a predicate; [Null] and non-boolean results are [false]. *)

val eval_float : Schema.t -> t -> Tuple.t -> float

val compile : Schema.t -> t -> Tuple.t -> Value.t
(** Staged evaluation: resolves column positions once; the returned closure
    does no schema lookups. Semantics identical to {!eval}. *)

val compile_float : Schema.t -> t -> Tuple.t -> float
(** [compile] read as a float. A numeric tree (constants, columns, [Neg]
    and the four arithmetic operators) is evaluated in floats whenever its
    referenced cells are all [Float], bit-identical to the [Value] path and
    allocating one float per arithmetic node; any other row or shape takes
    the [Value] path. *)

val compile_bool : Schema.t -> t -> Tuple.t -> bool

val column_refs : t -> column_ref list
(** All column references, without duplicates, in first-occurrence order. *)

val relations : t -> string list
(** Distinct relation qualifiers appearing in the expression. *)

val bound_by : Schema.t -> t -> bool
(** Every column reference resolves (unambiguously) in the schema. *)

(** {2 Numeric plans}

    The one planner of numeric expressions, shared by {!compile_float}'s
    float path and the vectorized score and predicate kernels. *)

type num =
  | Nk of float
  | Ncol of int  (** a column position *)
  | Nneg of num
  | Nadd of num * num
  | Nsub of num * num
  | Nmul of num * num
  | Ndiv of num * num

val plan_num : Schema.t -> t -> [ `C of Value.t | `N of num ] option
(** [`C v] when the expression folds to the Int or Float constant [v] (the
    same value evaluation gives); [`N n] when it is a numeric tree over
    bound columns whose float evaluation over all-[Float] cells is
    bit-identical to {!eval}'s, read as a float; [None] for anything else
    (Null or non-numeric constants, comparisons, connectives, unbound
    columns). *)

val num_operand : [ `C of Value.t | `N of num ] -> num
(** A planned operand as a float plan: a constant lifted to [Nk]. Exact
    when the operand's partner is a float tree. *)

val num_cols : int list -> num -> int list
(** The column positions the plan reads, prepended to the list. *)

(** {2 Linear (weighted-sum) canonical form} *)

type linear = {
  terms : (float * column_ref) list;  (** Sorted by qualified column name. *)
  intercept : float;
}

val as_linear : t -> linear option
(** [Some] when the expression is a linear combination of columns with
    constant coefficients. Terms on the same column are merged; zero terms
    are dropped. *)

val of_linear : linear -> t

val linear_same_order : linear -> linear -> bool
(** Whether the two linear forms induce the same tuple ordering, i.e. they
    are equal up to a positive scale factor and the intercept. *)

val equal : t -> t -> bool
(** Structural equality, except linear expressions compare via
    {!linear_same_order} (so [0.3*x + 0.3*y] equals [x + y] as an order). *)

type canonical
(** An expression with its linear form computed once, for callers that
    compare the same expression many times (the optimizer's order
    properties). *)

val canonical : t -> canonical

val canonical_equal : canonical -> canonical -> bool
(** [canonical_equal (canonical a) (canonical b) = equal a b], without
    recomputing either linear form and without allocating. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
