(** Typed SQL-style values.

    All scores in the ranking machinery are carried as [Float] values;
    [compare] orders numerics numerically (so [Int 1 < Float 1.5]) and
    everything else within its own constructor. *)

type dtype = Tint | Tfloat | Tstring | Tbool
(** Column data types. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val dtype_of : t -> dtype option
(** [None] for [Null]. *)

val dtype_name : dtype -> string

val compare : t -> t -> int
(** Total order: [Null] sorts first; [Int]/[Float] compare numerically with
    each other; distinct non-numeric constructors compare by constructor. *)

val equal : t -> t -> bool

val identical : t -> t -> bool
(** Same constructor and same value, floats compared by their bits: finer
    than {!equal}, which equates [Int 3] with [Float 3.], [-0.] with [+0.],
    and ints beyond 2^53 with their nearest float. *)

val hash : t -> int
(** Compatible with [equal]: numerically equal ints and floats hash alike. *)

val to_float : t -> float
(** Numeric coercion. [Null] is 0, [Bool] is 0/1.
    @raise Invalid_argument on strings. *)

val to_int : t -> int
(** @raise Invalid_argument on strings. Floats are truncated. *)

val is_null : t -> bool

val pp : Format.formatter -> t -> unit

val add_text : Buffer.t -> t -> unit
(** The TEXT cell spelling, appended to the buffer: [NULL], ints as
    [%d], floats as [%g], strings as [%S], [true]/[false] — byte-equal
    to the [Printf] conversions (see {!Rkutil.Num_codec}). *)

val to_string : t -> string
(** {!add_text} as a string. *)
