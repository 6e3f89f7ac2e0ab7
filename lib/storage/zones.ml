open Relalg

(* Zone bounds by page ordinal. Pages past the end of the arrays have never
   been widened and read as the empty zone [infinity, neg_infinity]. *)
type t = { mutable lo : Float.Array.t; mutable hi : Float.Array.t }

let create () = { lo = Float.Array.create 0; hi = Float.Array.create 0 }

let bounds t page =
  if page < Float.Array.length t.lo then
    (Float.Array.get t.lo page, Float.Array.get t.hi page)
  else (infinity, neg_infinity)

let extend t page lo hi =
  let n = Float.Array.length t.lo in
  if page >= n then begin
    let m = max (page + 1) (max 8 (2 * n)) in
    let grow a empty =
      let b = Float.Array.make m empty in
      Float.Array.blit a 0 b 0 n;
      b
    in
    t.lo <- grow t.lo infinity;
    t.hi <- grow t.hi neg_infinity
  end;
  if lo < Float.Array.get t.lo page then Float.Array.set t.lo page lo;
  if hi > Float.Array.get t.hi page then Float.Array.set t.hi page hi

let widen t ~page = function
  | Value.Null -> ()
  | Value.Int i ->
      let f = float_of_int i in
      extend t page f f
  | Value.Float f when not (Float.is_nan f) -> extend t page f f
  | Value.Float _ | Value.Str _ | Value.Bool _ -> extend t page neg_infinity infinity

let may_match t ~page op c =
  let lo, hi = bounds t page in
  match op with
  | Expr.Eq -> lo <= c && c <= hi
  | Expr.Lt | Expr.Le -> lo <= c
  | Expr.Gt | Expr.Ge -> c <= hi
  | Expr.Ne -> true

let covers t ~page v =
  let lo, hi = bounds t page in
  match v with
  | Value.Null -> true
  | Value.Int i -> lo <= float_of_int i && float_of_int i <= hi
  | Value.Float f when not (Float.is_nan f) -> lo <= f && f <= hi
  | Value.Float _ | Value.Str _ | Value.Bool _ -> lo = neg_infinity && hi = infinity
