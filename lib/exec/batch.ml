open Relalg

(* Columnar batches with selection vectors (VectorWise-style).

   A batch holds up to [default_rows] tuples plus a selection vector of the
   physical row indices still alive; filters refine the selection in place
   without copying rows. Per-column unboxed [float array] views are built
   lazily the first time a vectorized kernel touches a column; a view exists
   only when every physical value in the column is a [Value.Float], which is
   exactly the regime where the scalar expression interpreter is guaranteed
   to take its float path — so the vectorized kernels below are bit-identical
   to {!Expr.compile_float}/{!Expr.compile_bool}, including NaN propagation
   (same per-element operation sequence) and comparison semantics
   ([Value.compare] = [Float.compare], a total order with NaN below every
   real). Columns containing Null/Int/Str/Bool values, and expression shapes
   outside the arithmetic/comparison fragment, fall back to the scalar
   closure applied row-at-a-time over the selection — still amortized (one
   tight loop per batch), and exact by construction. *)

let default_rows = 1024

type view = Floats of float array | Opaque

type t = {
  schema : Schema.t;
  rows : Tuple.t array;  (* physical rows; [0, len) are valid *)
  len : int;
  mutable sel : int array;  (* selected physical indices, ascending *)
  mutable n : int;  (* live prefix of [sel] *)
  views : view option array;  (* lazy per-column float views *)
}

let of_rows schema rows =
  let len = Array.length rows in
  {
    schema;
    rows;
    len;
    sel = Array.init len (fun i -> i);
    n = len;
    views = Array.make (Schema.arity schema) None;
  }

let of_list schema tuples = of_rows schema (Array.of_list tuples)

let schema t = t.schema

let length t = t.n

let get t j = t.rows.(t.sel.(j))

let iter f t =
  for j = 0 to t.n - 1 do
    f t.rows.(t.sel.(j))
  done

let to_list t =
  let acc = ref [] in
  for j = t.n - 1 downto 0 do
    acc := t.rows.(t.sel.(j)) :: !acc
  done;
  !acc

(* The lazy float view of column [c]: Some iff every physical value is a
   Float. Built over all physical rows (not just selected ones) so the view
   stays valid as the selection shrinks. *)
let float_view t c =
  match t.views.(c) with
  | Some (Floats a) -> Some a
  | Some Opaque -> None
  | None ->
      let a = Array.make t.len 0.0 in
      let ok = ref true in
      (try
         for i = 0 to t.len - 1 do
           match t.rows.(i).(c) with
           | Value.Float f -> a.(i) <- f
           | _ ->
               ok := false;
               raise Exit
         done
       with Exit -> ());
      if !ok then begin
        t.views.(c) <- Some (Floats a);
        Some a
      end
      else begin
        t.views.(c) <- Some Opaque;
        None
      end

(* -- Vectorized expression kernels -------------------------------------- *)

(* Numeric plans come from [Expr.plan_num], the planner [Expr.compile_float]
   shares, so the kernels and the row path agree on which trees take the
   float path. A comparison of two constants folds here in the Value
   domain. *)
type pred =
  | Pk of bool
  | Pcmp of Expr.cmp * Expr.num * Expr.num
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred

let cmp_const op a b =
  let c = Value.compare a b in
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

let rec plan_pred schema (e : Expr.t) : pred option =
  match e with
  | Expr.Cmp (op, a, b) -> (
      match (Expr.plan_num schema a, Expr.plan_num schema b) with
      | Some (`C x), Some (`C y) -> Some (Pk (cmp_const op x y))
      | Some x, Some y ->
          Some (Pcmp (op, Expr.num_operand x, Expr.num_operand y))
      | _ -> None)
  | Expr.And (a, b) -> (
      match (plan_pred schema a, plan_pred schema b) with
      | Some x, Some y -> Some (Pand (x, y))
      | _ -> None)
  | Expr.Or (a, b) -> (
      match (plan_pred schema a, plan_pred schema b) with
      | Some x, Some y -> Some (Por (x, y))
      | _ -> None)
  | Expr.Not e ->
      Option.map (fun p -> Pnot p) (plan_pred schema e)
  | _ -> None

let rec pred_cols acc = function
  | Pk _ -> acc
  | Pcmp (_, a, b) -> Expr.num_cols (Expr.num_cols acc a) b
  | Pand (a, b) | Por (a, b) -> pred_cols (pred_cols acc a) b
  | Pnot a -> pred_cols acc a

let views_ready t cols = List.for_all (fun c -> Option.is_some (float_view t c)) cols

(* Runtime evaluation over the batch's full physical extent (unselected rows
   compute garbage that is never read — float arithmetic cannot raise). Each
   elementwise operation applies the same float op in the same order as the
   scalar interpreter would per row, so results are bit-identical. *)
type ev = V of float array | S of float

let ev2 len op a b =
  match (a, b) with
  | S x, S y -> S (op x y)
  | V x, S y ->
      let r = Array.make len 0.0 in
      for i = 0 to len - 1 do
        r.(i) <- op x.(i) y
      done;
      V r
  | S x, V y ->
      let r = Array.make len 0.0 in
      for i = 0 to len - 1 do
        r.(i) <- op x y.(i)
      done;
      V r
  | V x, V y ->
      let r = Array.make len 0.0 in
      for i = 0 to len - 1 do
        r.(i) <- op x.(i) y.(i)
      done;
      V r

let rec eval_num t = function
  | Expr.Nk f -> S f
  | Expr.Ncol c -> (
      match t.views.(c) with
      | Some (Floats a) -> V a
      | _ -> invalid_arg "Batch.eval_num: missing float view")
  | Expr.Nneg a -> (
      match eval_num t a with
      | S x -> S (-.x)
      | V x ->
          let r = Array.make t.len 0.0 in
          for i = 0 to t.len - 1 do
            r.(i) <- -.x.(i)
          done;
          V r)
  | Expr.Nadd (a, b) -> ev2 t.len ( +. ) (eval_num t a) (eval_num t b)
  | Expr.Nsub (a, b) -> ev2 t.len ( -. ) (eval_num t a) (eval_num t b)
  | Expr.Nmul (a, b) -> ev2 t.len ( *. ) (eval_num t a) (eval_num t b)
  | Expr.Ndiv (a, b) -> ev2 t.len ( /. ) (eval_num t a) (eval_num t b)

type bv = Bs of bool | Bv of bool array

let cmp_holds op c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

let bv2 len op a b =
  match (a, b) with
  | Bs x, Bs y -> Bs (op x y)
  | Bv x, Bs y ->
      let r = Array.make len false in
      for i = 0 to len - 1 do
        r.(i) <- op x.(i) y
      done;
      Bv r
  | Bs x, Bv y ->
      let r = Array.make len false in
      for i = 0 to len - 1 do
        r.(i) <- op x y.(i)
      done;
      Bv r
  | Bv x, Bv y ->
      let r = Array.make len false in
      for i = 0 to len - 1 do
        r.(i) <- op x.(i) y.(i)
      done;
      Bv r

let rec eval_pred t = function
  | Pk b -> Bs b
  | Pcmp (op, a, b) -> (
      match (eval_num t a, eval_num t b) with
      | S x, S y -> Bs (cmp_holds op (Float.compare x y))
      | V x, S y ->
          let r = Array.make t.len false in
          for i = 0 to t.len - 1 do
            r.(i) <- cmp_holds op (Float.compare x.(i) y)
          done;
          Bv r
      | S x, V y ->
          let r = Array.make t.len false in
          for i = 0 to t.len - 1 do
            r.(i) <- cmp_holds op (Float.compare x y.(i))
          done;
          Bv r
      | V x, V y ->
          let r = Array.make t.len false in
          for i = 0 to t.len - 1 do
            r.(i) <- cmp_holds op (Float.compare x.(i) y.(i))
          done;
          Bv r)
  | Pand (a, b) -> bv2 t.len ( && ) (eval_pred t a) (eval_pred t b)
  | Por (a, b) -> bv2 t.len ( || ) (eval_pred t a) (eval_pred t b)
  | Pnot a -> (
      match eval_pred t a with
      | Bs b -> Bs (not b)
      | Bv x ->
          let r = Array.make t.len false in
          for i = 0 to t.len - 1 do
            r.(i) <- not x.(i)
          done;
          Bv r)

(* -- Public kernels ------------------------------------------------------ *)

let pred_kernel schema expr : t -> unit =
  let scalar = Expr.compile_bool schema expr in
  let fast = plan_pred schema expr in
  let cols = match fast with Some p -> pred_cols [] p | None -> [] in
  fun b ->
    let fast_ok =
      match fast with Some _ -> views_ready b cols | None -> false
    in
    if fast_ok then begin
      match eval_pred b (Option.get fast) with
      | Bs true -> ()
      | Bs false -> b.n <- 0
      | Bv mask ->
          let m = ref 0 in
          for j = 0 to b.n - 1 do
            let i = b.sel.(j) in
            if mask.(i) then begin
              b.sel.(!m) <- i;
              incr m
            end
          done;
          b.n <- !m
    end
    else begin
      let m = ref 0 in
      for j = 0 to b.n - 1 do
        let i = b.sel.(j) in
        if scalar b.rows.(i) then begin
          b.sel.(!m) <- i;
          incr m
        end
      done;
      b.n <- !m
    end

let score_kernel schema expr : t -> float array =
  let scalar = Expr.compile_float schema expr in
  let fast = Expr.plan_num schema expr in
  let cols =
    match fast with Some (`N n) -> Expr.num_cols [] n | _ -> []
  in
  fun b ->
    let out = Array.make b.n 0.0 in
    (match fast with
    | Some (`C v) -> Array.fill out 0 b.n (Value.to_float v)
    | Some (`N plan) when views_ready b cols -> (
        match eval_num b plan with
        | S f -> Array.fill out 0 b.n f
        | V a ->
            for j = 0 to b.n - 1 do
              out.(j) <- a.(b.sel.(j))
            done)
    | _ ->
        for j = 0 to b.n - 1 do
          out.(j) <- scalar b.rows.(b.sel.(j))
        done);
    out
