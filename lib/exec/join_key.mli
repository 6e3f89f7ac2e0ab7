(** The equi-join key rule every hash-based join shares.

    Two keys match when {!Relalg.Value.equal} says so, so [Int 3] joins
    [Float 3.0]; {!Tbl} hashes consistently with that. A NULL key matches
    nothing, not even another NULL, as in SQL: callers neither insert nor
    probe a key for which {!joins} is false. *)

open Relalg

module Tbl : Hashtbl.S with type key = Value.t

val joins : Value.t -> bool
(** [joins k] is false exactly for NULL. *)
