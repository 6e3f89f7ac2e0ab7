(* The C primitive behind Printf's decimal float conversions: the [%g]
   and [%.Nf] fast paths fall back to it whenever their error bound
   cannot rule out a different spelling. [%h] needs no fallback. *)
external format_float : string -> float -> string = "caml_format_float"

(* Digits of [n <= 0], most significant first; working on the negative
   side keeps min_int exact. [n mod 10] lies in [-9, 0] here. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* Exactly [width] decimal digits of [n >= 0], zero-padded on the left. *)
let rec add_padded b n width =
  if width > 1 then add_padded b (n / 10) (width - 1);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* Exact powers of ten (every one up to 10^22 is a double). *)
let pow10 = [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let ipow10 = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]

let sign_bit x = Int64.compare (Int64.bits_of_float x) 0L < 0

(* Round [y >= 0], a product carrying one rounding error (at most
   [y * 2^-53]), to the integer the exact product rounds to. [-1] when
   a rounding boundary lies within twice that bound, so that a tie (or
   the side of one) could be hidden: the caller then asks the C
   primitive. [y < 2^53] so that the truncation is exact. *)
let round_exact y =
  let f = int_of_float y in
  let frac = y -. float_of_int f in
  if Float.abs (frac -. 0.5) <= y *. 0x1p-52 then -1
  else if frac > 0.5 then f + 1
  else f

let fixed_formats = [| "%.0f"; "%.1f"; "%.2f"; "%.3f"; "%.4f"; "%.5f"; "%.6f" |]

let add_fixed b ~decimals x =
  let a = Float.abs x in
  (* [a < 9e9] also rejects NaN; it keeps [a * 10^6] below 2^53. *)
  let n = if a < 9e9 then round_exact (a *. pow10.(decimals)) else -1 in
  if n < 0 then Buffer.add_string b (format_float fixed_formats.(decimals) x)
  else begin
    if sign_bit x then Buffer.add_char b '-';
    let scale = ipow10.(decimals) in
    add_int b (n / scale);
    if decimals > 0 then begin
      Buffer.add_char b '.';
      add_padded b (n mod scale) decimals
    end
  end

(* Lower bounds of the decades the [%g] fast path covers, 1e-4 .. 1e5. *)
let decades = [| 1e-4; 1e-3; 1e-2; 1e-1; 1.; 1e1; 1e2; 1e3; 1e4; 1e5 |]

(* [%g]: six significant digits, fixed notation for decimal exponents
   -4 .. 5 (after rounding), trailing zeros and a bare point dropped. *)
let add_g b x =
  let a = Float.abs x in
  if a = 0.0 then Buffer.add_string b (if sign_bit x then "-0" else "0")
  else if not (a >= 1e-4 && a < 1e6) then
    Buffer.add_string b (format_float "%g" x)
  else begin
    let e = ref 5 in
    while a < decades.(!e + 4) do
      decr e
    done;
    (* Six digits: 10^5 <= n <= 10^6. The scale 10^(5-e) is exact. *)
    let n = round_exact (a *. pow10.(5 - !e)) in
    let n, e = if n = 1_000_000 then (100_000, !e + 1) else (n, !e) in
    if n < 100_000 || e > 5 then Buffer.add_string b (format_float "%g" x)
    else begin
      if x < 0.0 then Buffer.add_char b '-';
      (* Strip trailing zeros: [sig_] holds the [nd] significant digits. *)
      let sig_ = ref n and nd = ref 6 in
      while !sig_ mod 10 = 0 do
        sig_ := !sig_ / 10;
        decr nd
      done;
      let sig_ = !sig_ and nd = !nd in
      if e >= 0 then begin
        (* [e + 1] integer digits, [nd - e - 1] fraction digits. *)
        let frac = nd - e - 1 in
        if frac <= 0 then add_int b (sig_ * ipow10.(-frac))
        else begin
          add_int b (sig_ / ipow10.(frac));
          Buffer.add_char b '.';
          add_padded b (sig_ mod ipow10.(frac)) frac
        end
      end
      else begin
        Buffer.add_string b "0.";
        for _ = 1 to -e - 1 do
          Buffer.add_char b '0'
        done;
        add_int b sig_
      end
    end
  end

let hex_digits = "0123456789abcdef"

(* [%h]: the spelling of caml_hexstring_of_float with no precision —
   sign, [0x], the leading bit, the fraction's nibbles up to the last
   non-zero one, and a signed decimal binary exponent. *)
let add_hex b x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Buffer.add_char b '-';
  let exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  if exp = 0x7ff then Buffer.add_string b (if m = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b (if exp = 0 then "0x0" else "0x1");
    if m <> 0 then begin
      Buffer.add_char b '.';
      let m = ref m and shift = ref 48 in
      while !m <> 0 do
        Buffer.add_char b hex_digits.[(!m lsr !shift) land 0xf];
        m := !m land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    Buffer.add_char b 'p';
    let e = if exp = 0 then (if m = 0 then 0 else -1022) else exp - 1023 in
    if e >= 0 then Buffer.add_char b '+';
    add_int b e
  end

(* ------------------------------------------------------------------ *)
(* Readers over a slice [s.[pos] .. s.[pos + len - 1]].                *)

let int_of_slice s pos len =
  let stop = pos + len in
  let neg = len > 0 && s.[pos] = '-' in
  let i = if neg then pos + 1 else pos in
  (* At most 18 digits: the magnitude stays below 10^18 < max_int. *)
  if i >= stop || stop - i > 18 then int_of_string (String.sub s pos len)
  else begin
    let n = ref 0 and ok = ref true and j = ref i in
    while !ok && !j < stop do
      let c = Char.code (String.unsafe_get s !j) - 48 in
      if c < 0 || c > 9 then ok := false else n := (!n * 10) + c;
      incr j
    done;
    if not !ok then int_of_string (String.sub s pos len)
    else if neg then - !n
    else !n
  end

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

(* The spellings {!add_hex} writes for finite values: [-]0x1[.h{1,13}]p±e
   with e in [-1022, 1023], [-]0x0.h{1,13}p-1022 and [-]0x0p+0. Each is
   the exact value [mantissa * 2^(e - 52)]; nothing else is accepted,
   and NaN (which no accepted spelling denotes) says so without
   allocating an option. *)
(* The byte at [i], or NUL past [stop]. *)
let char_at s stop i = if i < stop then String.unsafe_get s i else '\000'

let hex_float_fast s pos len =
  let stop = pos + len in
  let neg = char_at s stop pos = '-' in
  let i = ref (if neg then pos + 1 else pos) in
  if !i + 3 > stop || s.[!i] <> '0' || s.[!i + 1] <> 'x' then Float.nan
  else begin
    let lead = Char.code s.[!i + 2] - 48 in
    i := !i + 3;
    let frac = ref 0 and nd = ref 0 and ok = ref (lead = 0 || lead = 1) in
    if !ok && char_at s stop !i = '.' then begin
      incr i;
      let d = ref (hex_value (char_at s stop !i)) in
      while !d >= 0 do
        frac := (!frac lsl 4) lor !d;
        incr nd;
        incr i;
        d := hex_value (char_at s stop !i)
      done;
      if !nd = 0 || !nd > 13 then ok := false
    end;
    if (not !ok) || char_at s stop !i <> 'p' then Float.nan
    else begin
      let esign = char_at s stop (!i + 1) in
      i := !i + 2;
      let e = ref 0 and ed = ref 0 in
      while !i < stop && !ed < 5 && s.[!i] >= '0' && s.[!i] <= '9' do
        e := (!e * 10) + Char.code s.[!i] - 48;
        incr ed;
        incr i
      done;
      let e = if esign = '-' then - !e else !e in
      let mant = (lead lsl 52) lor (!frac lsl (4 * (13 - !nd))) in
      if
        !i <> stop || !ed = 0
        || (esign <> '+' && esign <> '-')
        || not
             (if lead = 1 then e >= -1022 && e <= 1023
              else e = -1022 || (mant = 0 && e = 0))
      then Float.nan
      else
        let v =
          if lead = 1 then Float.ldexp (float_of_int mant) (e - 52)
          else Float.ldexp (float_of_int mant) (-1074)
        in
        if neg then Float.neg v else v
    end
  end

let hex_float_of_slice s pos len =
  let f = hex_float_fast s pos len in
  if Float.is_nan f then float_of_string (String.sub s pos len) else f
