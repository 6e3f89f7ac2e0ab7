(** Fixed-capacity tuple pages — the unit of simulated I/O. *)

open Relalg

type t

val create : id:int -> capacity:int -> t

val id : t -> int

val capacity : t -> int

val count : t -> int
(** Number of slots used (including tombstoned ones — slots are stable
    addresses). *)

val live_count : t -> int
(** Slots not tombstoned. *)

val is_full : t -> bool

val add : t -> Tuple.t -> int
(** Append a tuple, returning its slot.
    @raise Invalid_argument when full. *)

val get : t -> int -> Tuple.t
(** @raise Invalid_argument on an out-of-range or deleted slot. *)

val replace : t -> int -> Tuple.t -> unit
(** Overwrite a live slot in place.
    @raise Invalid_argument on an out-of-range or deleted slot. *)

val delete : t -> int -> bool
(** Tombstone a slot; [false] when out of range or already deleted. *)

val is_live : t -> int -> bool

val tuples : t -> Tuple.t list
(** Live tuples only. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Live tuples only. *)
