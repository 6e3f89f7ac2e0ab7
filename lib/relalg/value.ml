type dtype = Tint | Tfloat | Tstring | Tbool

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let dtype_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool

let dtype_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

let rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Per constructor rather than through polymorphic [=]: join-key tables
   call this once per tuple they gather. *)
let identical a b =
  match a, b with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Null, Null -> true
  | _ -> false

let hash = function
  | Null -> 17
  | Int x -> Hashtbl.hash (float_of_int x)
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b

let to_float = function
  | Null -> 0.0
  | Int x -> float_of_int x
  | Float x -> x
  | Bool true -> 1.0
  | Bool false -> 0.0
  | Str s -> invalid_arg ("Value.to_float: string value " ^ s)

let to_int = function
  | Null -> 0
  | Int x -> x
  | Float x -> int_of_float x
  | Bool true -> 1
  | Bool false -> 0
  | Str s -> invalid_arg ("Value.to_int: string value " ^ s)

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

(* The TEXT cell writer: a reply renders one of these per cell, so it
   writes into the row's buffer with no formatter and no intermediate
   string. [%S] is [String.escaped] between quotes. *)
let add_text b = function
  | Null -> Buffer.add_string b "NULL"
  | Int x -> Rkutil.Num_codec.add_int b x
  | Float x -> Rkutil.Num_codec.add_g b x
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Bool x -> Buffer.add_string b (if x then "true" else "false")

let to_string v =
  let b = Buffer.create 16 in
  add_text b v;
  Buffer.contents b

let pp fmt v = Format.pp_print_string fmt (to_string v)
