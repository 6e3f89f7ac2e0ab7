(** The equi-join key rule every hash-based join shares, and its table.

    Two keys match when {!Relalg.Value.equal} says so, so [Int 3] joins
    [Float 3.0]; {!hash} and {!Tbl} agree with that. A NULL key matches
    nothing, not even another NULL, as in SQL: callers neither insert nor
    probe a key for which {!joins} is false. *)

open Relalg

val joins : Value.t -> bool
(** [joins k] is false exactly for NULL. *)

val hash : Value.t -> int
(** Non-negative, and equal for keys {!Relalg.Value.equal} equates: an
    [Int x] hashes as [Float (float_of_int x)], -0. as 0., every NaN
    alike, by the float's bits and without allocating. Other values start
    from {!Relalg.Value.hash}. *)

(** A flat open-addressing table from keys to ['a]: one int array of
    slots, each packing part of a key's hash with its binding's position,
    and dense arrays of keys and data, so a binding allocates nothing and
    a probe compares ints until a hash matches. It answers
    exactly as [Hashtbl.Make (Value)] over the same calls, including for
    ints beyond 2^53, where [Value.equal] is not transitive and a key can
    equal two bindings: {!find} returns the more recently made one, and
    {!cons} overwrites that binding's key and data, as [Hashtbl.replace]
    does. *)
module Tbl : sig
  type 'a t

  val create : int -> 'a t
  (** [create n] sizes the slots for [n] bindings; the table grows past
      that. *)

  val length : 'a t -> int

  val clear : 'a t -> unit
  (** Remove every binding, releasing the keys and data. *)

  val add : 'a t -> Value.t -> 'a -> unit
  (** A new binding, which hides an older one of an equal key. *)

  val cons : 'a list t -> Value.t -> 'a -> unit
  (** [cons t k x] is [Hashtbl.replace t k (x :: find t k)], or
      [Hashtbl.replace t k [x]] when [k] has no binding, in a single probe:
      how every hash join gathers the tuples of a key. *)

  val find : 'a t -> Value.t -> 'a
  (** @raise Not_found when no binding's key equals the key. *)

  val position : 'a t -> Value.t -> int
  (** The dense position of the binding {!find} would return, or -1 when
      no binding's key equals the key. Positions count bindings in the
      order they were made, from 0. *)

  val find_or_add : 'a t -> Value.t -> 'a -> int
  (** [find_or_add t k v] is [position t k] when that is a binding, else
      the position of a new binding of [k] to [v] (then [length t - 1]),
      in a single probe. *)

  val find_opt : 'a t -> Value.t -> 'a option

  val map_inplace : ('a -> 'a) -> 'a t -> unit
  (** Replace every binding's data by [f] of it. *)
end
