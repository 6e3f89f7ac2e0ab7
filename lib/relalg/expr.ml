type column_ref = { relation : string option; name : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of column_ref
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t

let col ?relation name = Col { relation; name }

let cfloat f = Const (Value.Float f)

let cint i = Const (Value.Int i)

let ( + ) a b = Add (a, b)

let ( - ) a b = Sub (a, b)

let ( * ) a b = Mul (a, b)

let ( = ) a b = Cmp (Eq, a, b)

let weighted_sum terms =
  let term (w, e) = if Stdlib.( = ) w 1.0 then e else Mul (cfloat w, e) in
  match terms with
  | [] -> cfloat 0.0
  | first :: rest ->
      List.fold_left (fun acc t -> Add (acc, term t)) (term first) rest

let ref_name r = match r.relation with None -> r.name | Some q -> q ^ "." ^ r.name

let numeric2 op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      match op with
      | `Add -> Value.Int (Stdlib.( + ) x y)
      | `Sub -> Value.Int (Stdlib.( - ) x y)
      | `Mul -> Value.Int (Stdlib.( * ) x y)
      | `Div -> Value.Float (float_of_int x /. float_of_int y))
  | _ ->
      let x = Value.to_float a and y = Value.to_float b in
      let r =
        match op with
        | `Add -> x +. y
        | `Sub -> x -. y
        | `Mul -> x *. y
        | `Div -> x /. y
      in
      Value.Float r

let apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare a b in
    let r =
      match op with
      | Eq -> Stdlib.( = ) c 0
      | Ne -> Stdlib.( <> ) c 0
      | Lt -> Stdlib.( < ) c 0
      | Le -> Stdlib.( <= ) c 0
      | Gt -> Stdlib.( > ) c 0
      | Ge -> Stdlib.( >= ) c 0
    in
    Value.Bool r

let truthy = function Value.Bool b -> b | Value.Null -> false | _ -> false

(* Three-valued logic is collapsed: Null behaves as false in And/Or/Not,
   which matches how the engine uses predicates (WHERE semantics). *)
let rec compile schema expr : Tuple.t -> Value.t =
  match expr with
  | Const v -> fun _ -> v
  | Col r ->
      let idx =
        match Schema.index_of schema ?relation:r.relation r.name with
        | Some i -> i
        | None -> invalid_arg ("Expr: unbound column " ^ ref_name r)
      in
      fun t -> t.(idx)
  | Neg e ->
      let f = compile schema e in
      fun t -> (
        match f t with
        | Value.Null -> Value.Null
        | Value.Int x -> Value.Int (Stdlib.( - ) 0 x)
        | v -> Value.Float (-.Value.to_float v))
  | Add (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Add (fa t) (fb t)
  | Sub (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Sub (fa t) (fb t)
  | Mul (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Mul (fa t) (fb t)
  | Div (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Div (fa t) (fb t)
  | Cmp (op, a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> apply_cmp op (fa t) (fb t)
  | And (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> Value.Bool (truthy (fa t) && truthy (fb t))
  | Or (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> Value.Bool (truthy (fa t) || truthy (fb t))
  | Not e ->
      let f = compile schema e in
      fun t -> Value.Bool (not (truthy (f t)))

let eval schema expr tuple = compile schema expr tuple

let eval_bool schema expr tuple = truthy (eval schema expr tuple)

let eval_float schema expr tuple = Value.to_float (eval schema expr tuple)

(* -- Numeric plans ------------------------------------------------------ *)

(* Static plan of a numeric expression over column positions. Constant
   subtrees are folded at plan time in the Value domain, through
   [numeric2] itself, so Int/Int constant arithmetic stays exact; a
   remaining constant operand is lifted to float, which is exact whenever
   its runtime partner is a Float — [numeric2] would take the same float
   branch. *)
type num =
  | Nk of float
  | Ncol of int
  | Nneg of num
  | Nadd of num * num
  | Nsub of num * num
  | Nmul of num * num
  | Ndiv of num * num

let neg_value = function
  | Value.Int x -> Value.Int (Stdlib.( - ) 0 x)
  | v -> Value.Float (-.Value.to_float v)

let num_operand = function `C v -> Nk (Value.to_float v) | `N n -> n

let rec plan_num schema e : [ `C of Value.t | `N of num ] option =
  match e with
  | Const ((Value.Int _ | Value.Float _) as v) -> Some (`C v)
  | Const _ -> None
  | Col r -> (
      match Schema.index_of schema ?relation:r.relation r.name with
      | Some i -> Some (`N (Ncol i))
      | None -> None)
  | Neg e -> (
      match plan_num schema e with
      | Some (`C v) -> Some (`C (neg_value v))
      | Some (`N n) -> Some (`N (Nneg n))
      | None -> None)
  | Add (a, b) -> plan_bin schema `Add a b
  | Sub (a, b) -> plan_bin schema `Sub a b
  | Mul (a, b) -> plan_bin schema `Mul a b
  | Div (a, b) -> plan_bin schema `Div a b
  | Cmp _ | And _ | Or _ | Not _ -> None

and plan_bin schema op a b =
  match plan_num schema a, plan_num schema b with
  | Some (`C x), Some (`C y) -> Some (`C (numeric2 op x y))
  | Some x, Some y ->
      let l = num_operand x and r = num_operand y in
      Some
        (`N
          (match op with
          | `Add -> Nadd (l, r)
          | `Sub -> Nsub (l, r)
          | `Mul -> Nmul (l, r)
          | `Div -> Ndiv (l, r)))
  | _ -> None

let rec num_cols acc = function
  | Nk _ -> acc
  | Ncol c -> c :: acc
  | Nneg a -> num_cols acc a
  | Nadd (a, b) | Nsub (a, b) | Nmul (a, b) | Ndiv (a, b) ->
      num_cols (num_cols acc a) b

exception Not_float

(* [n] over a row whose referenced cells are all [Float], else
   [Not_float]. Every node applies the float operation [numeric2] applies
   to two Floats, so the result is bit-identical to the [Value] path. A
   leaf returns the float its cell or constant already boxes, so only
   arithmetic nodes allocate, one float each. *)
let rec eval_num n (t : Tuple.t) =
  match n with
  | Nk f -> f
  | Ncol i -> (
      match t.(i) with Value.Float f -> f | _ -> raise_notrace Not_float)
  | Nneg a -> -.eval_num a t
  | Nadd (a, b) -> eval_num a t +. eval_num b t
  | Nsub (a, b) -> eval_num a t -. eval_num b t
  | Nmul (a, b) -> eval_num a t *. eval_num b t
  | Ndiv (a, b) -> eval_num a t /. eval_num b t

(* Numeric trees take the float path while their cells are all [Float] and
   fall back to the [Value] interpreter row by row otherwise (an Int, Null
   or other cell); other shapes always use the interpreter. *)
let compile_float schema expr =
  let f = compile schema expr in
  match plan_num schema expr with
  | Some (`C v) ->
      let x = Value.to_float v in
      fun _ -> x
  | Some (`N n) -> (
      fun t -> try eval_num n t with Not_float -> Value.to_float (f t))
  | None -> fun t -> Value.to_float (f t)

let compile_bool schema expr =
  let f = compile schema expr in
  fun t -> truthy (f t)

let column_refs expr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Col r ->
        let key = ref_name r in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc := r :: !acc
        end
    | Neg e | Not e -> go e
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b)
    | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        go a;
        go b
  in
  go expr;
  List.rev !acc

let relations expr =
  let refs = column_refs expr in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun r ->
      match r.relation with
      | None -> None
      | Some q ->
          if Hashtbl.mem seen q then None
          else begin
            Hashtbl.add seen q ();
            Some q
          end)
    refs

let bound_by schema expr =
  List.for_all
    (fun r ->
      match Schema.index_of schema ?relation:r.relation r.name with
      | Some _ -> true
      | None -> false
      | exception Invalid_argument _ -> false)
    (column_refs expr)

type linear = {
  terms : (float * column_ref) list;
  intercept : float;
}

let const_value = function
  | Const v when not (Value.is_null v) -> (
      match v with
      | Value.Int x -> Some (float_of_int x)
      | Value.Float x -> Some x
      | _ -> None)
  | _ -> None

(* Recognise linear combinations: c, x, e1+e2, e1-e2, -e, c*e, e*c, e/c. *)
let rec linearize = function
  | Const _ as e -> Option.map (fun c -> ([], c)) (const_value e)
  | Col r -> Some ([ (1.0, r) ], 0.0)
  | Neg e ->
      Option.map
        (fun (ts, c) -> (List.map (fun (w, r) -> (-.w, r)) ts, -.c))
        (linearize e)
  | Add (a, b) ->
      Option.bind (linearize a) (fun (ta, ca) ->
          Option.map (fun (tb, cb) -> (ta @ tb, ca +. cb)) (linearize b))
  | Sub (a, b) ->
      Option.bind (linearize a) (fun (ta, ca) ->
          Option.map
            (fun (tb, cb) ->
              (ta @ List.map (fun (w, r) -> (-.w, r)) tb, ca -. cb))
            (linearize b))
  | Mul (a, b) -> (
      match const_value a, const_value b with
      | Some c, _ ->
          Option.map
            (fun (ts, c0) -> (List.map (fun (w, r) -> (c *. w, r)) ts, c *. c0))
            (linearize b)
      | _, Some c ->
          Option.map
            (fun (ts, c0) -> (List.map (fun (w, r) -> (c *. w, r)) ts, c *. c0))
            (linearize a)
      | None, None -> None)
  | Div (a, b) -> (
      match const_value b with
      | Some c when Stdlib.( <> ) c 0.0 ->
          Option.map
            (fun (ts, c0) ->
              (List.map (fun (w, r) -> (w /. c, r)) ts, c0 /. c))
            (linearize a)
      | _ -> None)
  | Cmp _ | And _ | Or _ | Not _ -> None

let as_linear expr =
  match linearize expr with
  | None -> None
  | Some (terms, intercept) ->
      let tbl = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun (w, r) ->
          let key = ref_name r in
          match Hashtbl.find_opt tbl key with
          | Some (w0, _) -> Hashtbl.replace tbl key (w0 +. w, r)
          | None ->
              Hashtbl.add tbl key (w, r);
              order := key :: !order)
        terms;
      let merged =
        !order |> List.rev_map (fun key -> Hashtbl.find tbl key)
        |> List.filter (fun (w, _) -> Stdlib.( <> ) w 0.0)
        |> List.map (fun (w, r) -> (w, r))
        |> List.sort (fun (_, a) (_, b) -> String.compare (ref_name a) (ref_name b))
      in
      Some { terms = merged; intercept }

let of_linear { terms; intercept } =
  let base =
    match terms with
    | [] -> cfloat intercept
    | _ -> weighted_sum (List.map (fun (w, r) -> (w, Col r)) terms)
  in
  if Stdlib.( = ) intercept 0.0 || Stdlib.( = ) terms [] then base
  else Add (base, cfloat intercept)

(* Identifiers never contain a dot (the lexer splits qualified names at
   it), so comparing the two fields agrees with comparing [ref_name]s,
   without building either string. *)
let ref_equal r s =
  String.equal r.name s.name && Option.equal String.equal r.relation s.relation

let linear_same_order a b =
  match a.terms, b.terms with
  | [], [] -> true
  | (wa, _) :: _, (wb, _) :: _ ->
      (* A loop over refs rather than a closure, so [scale] stays unboxed
         and the comparison allocates nothing. *)
      let scale = wb /. wa in
      let same = ref (Stdlib.( > ) scale 0.0) in
      let ta = ref a.terms and tb = ref b.terms in
      while !same && Stdlib.( != ) !ta [] do
        match !ta, !tb with
        | (w1, r1) :: ra, (w2, r2) :: rb ->
            same :=
              ref_equal r1 r2
              && Stdlib.( < )
                   (Float.abs ((w1 *. scale) -. w2))
                   ((1e-9 *. Float.abs w2) +. 1e-12);
            ta := ra;
            tb := rb
        | _ -> same := false
      done;
      !same && Stdlib.( == ) !tb []
  | _ -> false

let rec structural_equal a b =
  match a, b with
  | Const u, Const v -> Value.equal u v
  | Col r, Col s -> ref_equal r s
  | Neg x, Neg y | Not x, Not y -> structural_equal x y
  | Add (x1, y1), Add (x2, y2)
  | Sub (x1, y1), Sub (x2, y2)
  | Mul (x1, y1), Mul (x2, y2)
  | Div (x1, y1), Div (x2, y2)
  | And (x1, y1), And (x2, y2)
  | Or (x1, y1), Or (x2, y2) ->
      structural_equal x1 x2 && structural_equal y1 y2
  | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
      Stdlib.( = ) o1 o2 && structural_equal x1 x2 && structural_equal y1 y2
  | _ -> false

type canonical = { c_linear : linear option; c_expr : t }

let canonical e = { c_linear = as_linear e; c_expr = e }

let canonical_equal a b =
  match a.c_linear, b.c_linear with
  | Some la, Some lb -> linear_same_order la lb
  | _ -> structural_equal a.c_expr b.c_expr

let equal a b = canonical_equal (canonical a) (canonical b)

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp fmt = function
  | Const v -> Value.pp fmt v
  | Col r -> Format.pp_print_string fmt (ref_name r)
  | Neg e -> Format.fprintf fmt "-(%a)" pp e
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Cmp (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp a (cmp_symbol op) pp b
  | And (a, b) -> Format.fprintf fmt "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a OR %a)" pp a pp b
  | Not e -> Format.fprintf fmt "NOT (%a)" pp e

let to_string e = Format.asprintf "%a" pp e
