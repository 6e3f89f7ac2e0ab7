(** Planlint entry points: lint whole plans, memos, planned statements and
    plan-cache entries; install the emit-time assertion mode. *)

val lint_plan :
  ?query:Core.Logical.t ->
  ?env:Core.Cost_model.env ->
  Storage.Catalog.t ->
  Core.Plan.t ->
  Diag.t list
(** Structural rules (PL01 schema, PL02 order, PL03 pipelining, PL15
    batched-region boundaries) on any physical plan. With [query], filter
    preservation (PL04) is checked too; with [env], the estimate rules
    (PL05 propagation, PL06 depths, PL07 cost) as well. Diagnostics come
    back sorted, errors first. *)

val lint_subplan :
  Core.Cost_model.env -> ?key:int -> Core.Memo.subplan -> Diag.t list
(** What the emit-time mode runs per retained plan: the structural rules
    plus filter preservation against [env]'s query and the property-bit
    checks (PL03/PL08/PL15) against the stored subplan record. *)

val lint_memo : Core.Cost_model.env -> Core.Memo.t -> Diag.t list
(** Every retained subplan of every entry, plus memo hygiene (PL08). *)

val lint_planned : Core.Optimizer.planned -> Diag.t list
(** Full catalog over a finished statement: structural + filter + estimate
    rules and the top-k root shape / k-interval rule (PL09). *)

val lint_prepared :
  key:string -> epoch:int -> Sqlfront.Sql.prepared -> Diag.t list
(** A plan-cache entry: PL10 key/interval consistency plus
    {!lint_planned} on the entry's plan. *)

val check : Storage.Catalog.t -> Core.Plan.t -> (unit, string) result
(** First-error view of the structural rules: [Ok ()] when they produce
    no errors, otherwise the first diagnostic as a string. *)

val errors : Diag.t list -> Diag.t list
(** Just the error-severity diagnostics. *)

(** Emit-time assertion mode: when enabled, every subplan the MEMO retains
    and every statement the optimizer finishes is linted on the spot (wired
    through {!Core.Enumerator.retain_hook} / {!Core.Optimizer.planned_hook}).
    Diagnostics accumulate for inspection; with [fail:true] the first error
    raises instead — the debug-assertion configuration for tests and fuzz
    runs. *)
module Emit : sig
  exception Lint_error of Diag.t

  val enable : ?fail:bool -> unit -> unit
  (** Install the hooks and start linting ([fail] defaults to [false]). *)

  val disable : unit -> unit

  val linted : unit -> int
  (** Plans linted since the counters were last reset. *)

  val diagnostics : unit -> Diag.t list
  (** Accumulated diagnostics, in emission order. *)

  val reset : unit -> unit
  (** Clear the accumulated diagnostics and the counter. *)
end
