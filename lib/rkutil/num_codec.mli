(** Number spellings of the reply and persist codecs, written into a
    [Buffer] and read from a string slice without [Printf] or
    substrings.

    Every writer is byte-identical to its [Printf] conversion and every
    reader bit-identical to [int_of_string]/[float_of_string]. A fast
    path runs only where its error bound rules out another spelling:
    a float product carries one rounding, of at most [y * 2^-53], so
    rounding it to an integer is exact unless a rounding boundary lies
    within twice that bound. Everything else — NaN, infinities,
    magnitudes from 9e9 ([%.Nf]) or outside [\[1e-4, 1e6)] ([%g]),
    near-ties, and any spelling a reader does not recognize — goes to
    the C primitive ([caml_format_float], [float_of_string],
    [int_of_string]) on the same input. *)

val add_int : Buffer.t -> int -> unit
(** [%d]. *)

val add_fixed : Buffer.t -> decimals:int -> float -> unit
(** [%.<decimals>f], [decimals] in 0..6: [score=%.6f] cells and the
    [latency_ms=%.3f] header field. *)

val add_g : Buffer.t -> float -> unit
(** [%g]: the TEXT spelling of a float cell. *)

val add_hex : Buffer.t -> float -> unit
(** [%h]: the HEX spelling of a float cell and score — exact. *)

val int_of_slice : string -> int -> int -> int
(** [int_of_slice s pos len] is [int_of_string (String.sub s pos len)].
    @raise Failure as [int_of_string] does. *)

val hex_float_of_slice : string -> int -> int -> float
(** [float_of_string] of the slice; {!add_hex}'s spellings of finite
    values are read without it.
    @raise Failure as [float_of_string] does. *)
