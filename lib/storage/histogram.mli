(** Equi-width histograms over numeric columns.

    Used by the catalog for selectivity estimation and by the depth model to
    characterise score distributions (the mean decrement slab of Section 4.3
    falls out of min/max/count).

    NaN values are counted ({!count}, {!distinct_estimate}) but lie outside
    the range: min, max and the buckets cover the other values only, and no
    selectivity selects a NaN. *)

type t

val build : ?buckets:int -> float list -> t
(** Default 32 buckets. The empty list yields an empty histogram. Same as
    [of_column (column ?buckets (Float.Array.of_list values))]. *)

(** {2 Sorted columns}

    A column's values kept sorted in one unboxed array, together with their
    exact distinct count and the bucket counts of the last histogram derived
    from it. Adding or removing a value costs a binary search and one blit,
    so a histogram over the current values can be re-derived without
    re-reading or re-sorting them. *)

type column

val column : ?buckets:int -> Float.Array.t -> column
(** Sort the values (taking ownership of the array) into a column whose
    histograms have [buckets] buckets (default 32). *)

val add : column -> float -> unit

val remove : column -> float -> unit
(** Remove one occurrence of a value.
    @raise Invalid_argument if the column does not hold it. *)

val values : column -> Float.Array.t
(** A copy of the column's current values, sorted (NaN first, -0. before
    +0.). *)

val of_column : column -> t
(** The histogram of the column's current values, equal (under [compare])
    to {!build} over the same values in any order: min and max come from
    the ends of the array's non-NaN part, the distinct
    count is kept under [Float.compare] as values come and go, and the
    bucket counts are reused as maintained when min and max did not move,
    or recounted in one pass over the array when they did. *)

val count : t -> int
(** Every value, NaN included. *)

val min_value : t -> float
(** [infinity] when there is no non-NaN value. *)

val max_value : t -> float
(** [neg_infinity] when there is no non-NaN value. *)

val bucket_count : t -> int

val bucket_of : t -> float -> int option
(** Bucket index containing a value, [None] outside the range or empty. *)

val selectivity_le : t -> float -> float
(** Estimated fraction of values ≤ x (linear interpolation in-bucket).
    Exactly 0 below the histogram minimum and the non-NaN share at or
    above the maximum. *)

val selectivity_range : t -> lo:float -> hi:float -> float
(** Estimated fraction of values in the closed interval [\[lo, hi\]].
    Point ranges ([lo = hi]) delegate to {!selectivity_eq}; intervals
    entirely outside the recorded domain return 0; otherwise the estimate is
    never below what a point predicate on an in-domain endpoint would give. *)

val selectivity_eq : t -> float -> float
(** Estimated fraction equal to x, assuming in-bucket uniformity and the
    recorded distinct count. *)

val distinct_estimate : t -> int
(** Exact distinct count, recorded at build time. *)

val mean_decrement_slab : t -> float
(** Average score gap between consecutive order statistics:
    [(max - min) / (n - 1)] over the n non-NaN values; 0 for n < 2. This is the
    "x" (resp. "y") of the paper's any-k depth formulas. *)

val pp : Format.formatter -> t -> unit
