(** Per-page value ranges of one numeric column — Moerkotte's "small
    materialized aggregates", kept per heap page so that a predicate scan
    can skip the pages that cannot hold a match.

    A page's zone is a closed interval of floats that contains
    [Value.to_float] of every live non-NULL cell the column has on that
    page. Zones are only ever widened (on every append and in-place write),
    never narrowed by a delete, so they stay conservative between
    rebuilds. A NaN or non-numeric cell compares in ways no interval
    describes (NaN sorts below every number), so it widens its page's zone
    to [\[neg_infinity, infinity\]], which no comparison can rule out. A
    page that never received a non-NULL cell has the empty zone. *)

open Relalg

type t

val create : unit -> t
(** Every page starts with the empty zone. *)

val widen : t -> page:int -> Value.t -> unit
(** Widen the zone of the page with ordinal [page] to cover a cell written
    there. NULL leaves it unchanged. *)

val may_match : t -> page:int -> Expr.cmp -> float -> bool
(** [may_match t ~page op c]: whether some cell [v] inside the page's zone
    could satisfy [v op c], for [c] an Int or a non-NaN Float converted by
    [Value.to_float]. [false] only when no such cell can: the scan may then
    skip the page. [Ne] always may. Sound because [Value.to_float] is
    monotone, including ints beyond 2^53, and because the test is
    non-strict on both sides. *)

val covers : t -> page:int -> Value.t -> bool
(** Whether the page's zone contains a cell (the invariant
    {!Catalog.check} verifies): always for NULL. *)
