(** Polymorphic binary heap.

    Used as the priority queue inside the rank-join operators (ordered on
    descending combined score), by the external-merge-sort run merger, and by
    the rank-aggregation algorithms. The ordering is supplied at creation
    time; the element with the {e smallest} value under [cmp] is at the top,
    so pass an inverted comparison for a max-heap. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Fresh empty heap ordered by [cmp]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Top element without removing it. *)

val top_exn : 'a t -> 'a
(** [peek] without the option, for loops that test {!length} first.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
(** Remove and return the top element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
(** Empty the heap, keeping its capacity but dropping every element
    reference (vacated slots are nulled, so cleared elements can be
    collected). *)

val to_list : 'a t -> 'a list
(** Elements in unspecified order (heap is unchanged). *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val drain : 'a t -> 'a list
(** Pop everything; the result is sorted ascending under [cmp] and the heap is
    left empty. *)
