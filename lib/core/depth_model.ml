type side = {
  fan : int;
  card : float;
}

type params = {
  k : float;
  s : float;
  n : float;
  left : side;
  right : side;
}

type depths = { d_left : float; d_right : float }

let check_ks k s =
  if k < 1.0 then invalid_arg "Depth_model: k < 1";
  if s <= 0.0 || s > 1.0 then invalid_arg "Depth_model: selectivity outside (0,1]"

let any_k_depths ~k ~s ~x ~y =
  check_ks k s;
  if x <= 0.0 || y <= 0.0 then invalid_arg "Depth_model.any_k_depths: slab <= 0";
  let c_l = sqrt (y *. k /. (x *. s)) in
  let c_r = sqrt (x *. k /. (y *. s)) in
  (c_l, c_r)

let check_params p =
  check_ks p.k p.s;
  if p.n < 1.0 then invalid_arg "Depth_model: n < 1";
  if p.left.fan < 1 || p.right.fan < 1 then invalid_arg "Depth_model: fan < 1"

(* Equations 2-5. Everything is assembled in log space because the
   factorial powers overflow floats for modest l, r. *)
let worst_case_depths p =
  check_params p;
  let l = float_of_int p.left.fan and r = float_of_int p.right.fan in
  let logfact = Rkutil.Mathx.log_factorial in
  let log_k = log p.k and log_n = log p.n and log_s = log p.s in
  (* cL^(r+l) = (r!)^l k^l n^(r-l) l^(rl) / ( s^l (l!)^r r^(rl) ) *)
  let log_cl =
    ((l *. logfact p.right.fan)
    +. (l *. log_k)
    +. ((r -. l) *. log_n)
    +. (r *. l *. log l)
    -. (l *. log_s)
    -. (r *. logfact p.left.fan)
    -. (r *. l *. log r))
    /. (r +. l)
  in
  let log_cr =
    ((r *. logfact p.left.fan)
    +. (r *. log_k)
    +. ((l -. r) *. log_n)
    +. (r *. l *. log r)
    -. (r *. log_s)
    -. (l *. logfact p.right.fan)
    -. (r *. l *. log l))
    /. (r +. l)
  in
  let d_left = exp (log_cl +. (l *. log1p (r /. l))) in
  let d_right = exp (log_cr +. (r *. log1p (l /. r))) in
  { d_left; d_right }

type input = {
  density : float;
  fan : int;
  card : float;
}

(* log delta = (log k + log F! - (m-1) log s - sum log c_i) / F, then
   log d_i = log c_i + f_i log delta - log f_i!. *)
let threshold_depths ~k ~s inputs =
  check_ks k s;
  let m = Array.length inputs in
  if m < 2 then invalid_arg "Depth_model.threshold_depths: fewer than 2 inputs";
  Array.iter
    (fun i ->
      if i.fan < 1 then invalid_arg "Depth_model: fan < 1";
      if not (i.density > 0.0) then invalid_arg "Depth_model: density <= 0")
    inputs;
  let logfact = Rkutil.Mathx.log_factorial in
  let f = Array.fold_left (fun acc i -> acc + i.fan) 0 inputs in
  let log_c = Array.fold_left (fun acc i -> acc +. log i.density) 0.0 inputs in
  let log_delta =
    (log k +. logfact f -. (float_of_int (m - 1) *. log s) -. log_c)
    /. float_of_int f
  in
  Array.map
    (fun i ->
      let d = exp (log i.density +. (float_of_int i.fan *. log_delta) -. logfact i.fan) in
      Rkutil.Mathx.clamp ~lo:1.0 ~hi:(Float.max 1.0 i.card) d)
    inputs

let clamped p d =
  let clamp card v = Rkutil.Mathx.clamp ~lo:1.0 ~hi:(Float.max 1.0 card) v in
  { d_left = clamp p.left.card d.d_left; d_right = clamp p.right.card d.d_right }

let buffer_upper_bound d ~s = d.d_left *. d.d_right *. s
