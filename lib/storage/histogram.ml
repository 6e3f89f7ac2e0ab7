type t = {
  counts : int array;  (* over the non-NaN values only *)
  total : int;  (* every value, NaN included *)
  lo : float;
  hi : float;
  distinct : int;
}

(* [Float.compare] refined so that -0. sorts before +0.: the two ends of a
   column sorted this way are exactly what [Float.min] / [Float.max] folds
   over the same values return. NaN sorts first. *)
let order a b =
  match Float.compare a b with
  | 0 -> Bool.compare (Float.sign_bit b) (Float.sign_bit a)
  | c -> c

let bucket_index ~lo ~width ~buckets v =
  if width <= 0.0 then 0
  else Rkutil.Mathx.iclamp ~lo:0 ~hi:(buckets - 1) (int_of_float ((v -. lo) /. width))

type column = {
  buckets : int;
  mutable values : Float.Array.t;  (* sorted by [order] below [len] *)
  mutable len : int;
  mutable distinct_values : int;  (* equal runs under [Float.compare] *)
  (* Bucket counts of the live values under [base_lo]/[base_hi], the range of
     the last histogram derived from the column; [[||]] when there is none.
     They are reused as they stand whenever the next histogram has a
     bitwise-identical range. *)
  mutable base_lo : float;
  mutable base_hi : float;
  mutable base_counts : int array;
}

let column ?(buckets = 32) values =
  Float.Array.stable_sort order values;
  let len = Float.Array.length values in
  let distinct = ref (min len 1) in
  for i = 1 to len - 1 do
    if Float.compare (Float.Array.get values (i - 1)) (Float.Array.get values i) <> 0
    then incr distinct
  done;
  {
    buckets = max 1 buckets;
    values;
    len;
    distinct_values = !distinct;
    base_lo = nan;
    base_hi = nan;
    base_counts = [||];
  }

(* First position below [len] whose value is not below [v] under [order]
   ([strict = false]), or is above it ([strict = true]); [len] if none. *)
let search c v ~strict =
  let lo = ref 0 and hi = ref c.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let cmp = order (Float.Array.get c.values mid) v in
    if cmp < 0 || (strict && cmp = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

let equal_at c i v =
  i >= 0 && i < c.len && Float.compare (Float.Array.get c.values i) v = 0

let move_base_count c v delta =
  if Array.length c.base_counts > 0 && not (Float.is_nan v) then begin
    let width = (c.base_hi -. c.base_lo) /. float_of_int c.buckets in
    let b = bucket_index ~lo:c.base_lo ~width ~buckets:c.buckets v in
    c.base_counts.(b) <- c.base_counts.(b) + delta
  end

let add c v =
  let pos = search c v ~strict:true in
  if not (equal_at c (pos - 1) v || equal_at c pos v) then
    c.distinct_values <- c.distinct_values + 1;
  if c.len = Float.Array.length c.values then begin
    let grown = Float.Array.create (max 8 (2 * c.len)) in
    Float.Array.blit c.values 0 grown 0 c.len;
    c.values <- grown
  end;
  Float.Array.blit c.values pos c.values (pos + 1) (c.len - pos);
  Float.Array.set c.values pos v;
  c.len <- c.len + 1;
  move_base_count c v 1

let remove c v =
  let pos = search c v ~strict:false in
  if pos >= c.len || order (Float.Array.get c.values pos) v <> 0 then
    invalid_arg "Histogram.remove: value not in column";
  Float.Array.blit c.values (pos + 1) c.values pos (c.len - pos - 1);
  c.len <- c.len - 1;
  if not (equal_at c (pos - 1) v || equal_at c pos v) then
    c.distinct_values <- c.distinct_values - 1;
  move_base_count c v (-1)

let values c = Float.Array.sub c.values 0 c.len

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* NaN sorts first: the non-NaN values start at the first position not
   below [neg_infinity]. *)
let first_number c = search c neg_infinity ~strict:false

let of_column c =
  let first = first_number c in
  if first = c.len then begin
    (* no value any comparison can select: the range is empty *)
    c.base_counts <- [||];
    { counts = [||]; total = c.len; lo = infinity; hi = neg_infinity;
      distinct = c.distinct_values }
  end
  else begin
    let lo = Float.Array.get c.values first
    and hi = Float.Array.get c.values (c.len - 1) in
    if
      not
        (Array.length c.base_counts > 0 && same_bits lo c.base_lo
       && same_bits hi c.base_hi)
    then begin
      let counts = Array.make c.buckets 0 in
      let width = (hi -. lo) /. float_of_int c.buckets in
      for i = first to c.len - 1 do
        let b = bucket_index ~lo ~width ~buckets:c.buckets (Float.Array.get c.values i) in
        counts.(b) <- counts.(b) + 1
      done;
      c.base_lo <- lo;
      c.base_hi <- hi;
      c.base_counts <- counts
    end;
    { counts = Array.copy c.base_counts; total = c.len; lo; hi;
      distinct = c.distinct_values }
  end

let build ?buckets values = of_column (column ?buckets (Float.Array.of_list values))

let count t = t.total

let min_value t = t.lo

let max_value t = t.hi

let bucket_count t = Array.length t.counts

let width t =
  if Array.length t.counts = 0 then 0.0
  else (t.hi -. t.lo) /. float_of_int (Array.length t.counts)

let bucket_of t v =
  if Array.length t.counts = 0 || not (v >= t.lo && v <= t.hi) then None
  else
    Some (bucket_index ~lo:t.lo ~width:(width t) ~buckets:(Array.length t.counts) v)

(* Values any comparison can select: NaN is counted but never selected. *)
let numbers t = Array.fold_left ( + ) 0 t.counts

let selectivity_le t x =
  if Array.length t.counts = 0 then 0.0
  else if x < t.lo then 0.0
  else if x >= t.hi then float_of_int (numbers t) /. float_of_int t.total
  else begin
    let w = width t in
    if w <= 0.0 then 1.0
    else begin
      let b = int_of_float ((x -. t.lo) /. w) in
      let b = Rkutil.Mathx.iclamp ~lo:0 ~hi:(Array.length t.counts - 1) b in
      let below = ref 0 in
      for i = 0 to b - 1 do
        below := !below + t.counts.(i)
      done;
      let bucket_lo = t.lo +. (float_of_int b *. w) in
      let frac = Rkutil.Mathx.clamp ~lo:0.0 ~hi:1.0 ((x -. bucket_lo) /. w) in
      (float_of_int !below +. (frac *. float_of_int t.counts.(b)))
      /. float_of_int t.total
    end
  end

let selectivity_eq t x =
  if t.total = 0 || t.distinct = 0 then 0.0
  else
    match bucket_of t x with
    | None -> 0.0
    | Some b ->
        let bucket_frac = float_of_int t.counts.(b) /. float_of_int t.total in
        let distinct_per_bucket =
          float_of_int t.distinct /. float_of_int (max 1 (Array.length t.counts))
        in
        bucket_frac /. Float.max 1.0 distinct_per_bucket

let selectivity_range t ~lo ~hi =
  if t.total = 0 || hi < lo then 0.0
  else if hi < t.lo || lo > t.hi then 0.0 (* interval entirely outside the domain *)
  else if lo = hi then selectivity_eq t lo
  else begin
    let mass = selectivity_le t hi -. selectivity_le t lo in
    (* A closed interval includes its endpoints, but interpolation assigns a
       boundary value zero width: never estimate below what a point predicate
       on either in-domain endpoint would return. *)
    let floor_mass = Float.max (selectivity_eq t lo) (selectivity_eq t hi) in
    Rkutil.Mathx.clamp ~lo:0.0 ~hi:1.0 (Float.max mass floor_mass)
  end

let distinct_estimate t = t.distinct

let mean_decrement_slab t =
  let n = numbers t in
  if n < 2 then 0.0 else (t.hi -. t.lo) /. float_of_int (n - 1)

let pp fmt t =
  Format.fprintf fmt "hist[n=%d lo=%g hi=%g distinct=%d buckets=%d]" t.total
    t.lo t.hi t.distinct (Array.length t.counts)
