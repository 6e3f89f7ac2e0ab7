(* The optimizer's precomputed order keys and the executor's join-key table,
   each checked against the implementation it replaced. *)

open Relalg
open Core

(* ---- Order keys --------------------------------------------------------- *)

(* The order comparison as it was before keys existed: [Expr.equal] over
   qualified-name strings, recomputing both linear forms on every call. *)
module Reference_order = struct
  let ref_name (r : Expr.column_ref) =
    match r.relation with None -> r.name | Some q -> q ^ "." ^ r.name

  let linear_same_order (a : Expr.linear) (b : Expr.linear) =
    match a.terms, b.terms with
    | [], [] -> true
    | (wa, _) :: _, (wb, _) :: _ ->
        let scale = wb /. wa in
        scale > 0.0
        && List.length a.terms = List.length b.terms
        && List.for_all2
             (fun (w1, r1) (w2, r2) ->
               String.equal (ref_name r1) (ref_name r2)
               && Float.abs ((w1 *. scale) -. w2) < (1e-9 *. Float.abs w2) +. 1e-12)
             a.terms b.terms
    | _ -> false

  let rec structural_equal (a : Expr.t) (b : Expr.t) =
    match a, b with
    | Const u, Const v -> Value.equal u v
    | Col r, Col s -> String.equal (ref_name r) (ref_name s)
    | Neg x, Neg y | Not x, Not y -> structural_equal x y
    | Add (x1, y1), Add (x2, y2)
    | Sub (x1, y1), Sub (x2, y2)
    | Mul (x1, y1), Mul (x2, y2)
    | Div (x1, y1), Div (x2, y2)
    | And (x1, y1), And (x2, y2)
    | Or (x1, y1), Or (x2, y2) ->
        structural_equal x1 x2 && structural_equal y1 y2
    | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
        o1 = o2 && structural_equal x1 x2 && structural_equal y1 y2
    | _ -> false

  let expr_equal a b =
    match Expr.as_linear a, Expr.as_linear b with
    | Some la, Some lb -> linear_same_order la lb
    | _ -> structural_equal a b

  let order_equal (a : Plan.order) (b : Plan.order) =
    a.direction = b.direction && expr_equal a.expr b.expr
end

let gen_order_pair =
  let open QCheck.Gen in
  let col =
    oneofl
      [
        Expr.col ~relation:"A" "score";
        Expr.col ~relation:"A" "key";
        Expr.col ~relation:"B" "score";
        Expr.col "score";
        Expr.col "key";
      ]
  in
  let weight =
    oneof
      [
        map Expr.cint (oneofl [ 0; 1; -1; 2; 3; -4 ]);
        map Expr.cfloat (oneofl [ 0.0; -0.0; 0.3; 0.7; -0.5; 1.0; 2.5 ]);
      ]
  in
  let term = oneof [ col; map2 (fun w c -> Expr.Mul (w, c)) weight col ] in
  (* linear sums, repeated columns and zero weights included *)
  let linear =
    list_size (int_range 1 4) term >|= fun ts ->
    List.fold_left (fun acc t -> Expr.Add (acc, t)) (List.hd ts) (List.tl ts)
  in
  let nonlinear =
    oneof
      [
        map2 (fun a b -> Expr.Mul (a, b)) col col;
        map2 (fun a b -> Expr.Div (a, b)) col col;
        map2 (fun a b -> Expr.Cmp (Expr.Lt, a, b)) col linear;
        return (Expr.Const (Value.Str "x"));
      ]
  in
  let expr = frequency [ (4, linear); (1, nonlinear) ] in
  (* scaled copies: positive, negative and zero factors, either side *)
  let scaled e =
    oneof
      [
        map (fun w -> Expr.Mul (w, e)) weight;
        map (fun w -> Expr.Mul (e, w)) weight;
        map (fun w -> Expr.Div (e, w)) weight;
        return (Expr.Neg e);
        return e;
      ]
  in
  let direction = oneofl [ Interesting_orders.Asc; Interesting_orders.Desc ] in
  expr >>= fun a ->
  oneof [ expr; scaled a ] >>= fun b ->
  direction >>= fun da ->
  frequency [ (3, return da); (1, direction) ] >|= fun db ->
  ({ Plan.expr = a; direction = da }, { Plan.expr = b; direction = db })

let print_order_pair ((a : Plan.order), (b : Plan.order)) =
  let dir = function Interesting_orders.Asc -> "ASC" | Desc -> "DESC" in
  Printf.sprintf "%s %s vs %s %s" (Expr.to_string a.expr) (dir a.direction)
    (Expr.to_string b.expr) (dir b.direction)

let prop_order_keys_agree =
  QCheck.Test.make ~name:"order keys agree with Expr.equal-based order_equal"
    ~count:2000
    (QCheck.make ~print:print_order_pair gen_order_pair)
    (fun (a, b) ->
      let expected = Reference_order.order_equal a b in
      let ka = Plan.order_key a and kb = Plan.order_key b in
      Bool.equal (Plan.key_equal ka kb) expected
      && Bool.equal (Plan.key_equal kb ka) (Reference_order.order_equal b a)
      && Bool.equal (Plan.order_equal a b) expected
      && Bool.equal
           (Plan.key_satisfies ~have:(Some ka) ~want:(Some kb))
           (Plan.order_satisfies ~have:(Some a) ~want:(Some b)))

(* The generated corpus must exercise both outcomes, or the property above
   says little. *)
let test_order_corpus_covers_both () =
  let rand = Random.State.make [| 17 |] in
  let same = ref 0 and differ = ref 0 in
  for _ = 1 to 2000 do
    let a, b = gen_order_pair rand in
    if Reference_order.order_equal a b then incr same else incr differ
  done;
  Alcotest.(check bool) "some equal pairs" true (!same >= 200);
  Alcotest.(check bool) "some unequal pairs" true (!differ >= 200)

let test_order_key_cases () =
  let x = Expr.col ~relation:"A" "x" and y = Expr.col ~relation:"A" "y" in
  let desc e = { Plan.expr = e; direction = Interesting_orders.Desc } in
  let asc e = { Plan.expr = e; direction = Interesting_orders.Asc } in
  let eq a b = Plan.key_equal (Plan.order_key a) (Plan.order_key b) in
  Alcotest.(check bool) "scaled sum" true
    (eq (desc Expr.((cfloat 0.3 * x) + (cfloat 0.3 * y))) (desc Expr.(x + y)));
  Alcotest.(check bool) "negative scale" false
    (eq (desc Expr.(cfloat (-1.0) * x)) (desc x));
  Alcotest.(check bool) "direction" false (eq (desc x) (asc x));
  Alcotest.(check bool) "qualified vs not" false (eq (desc x) (desc (Expr.col "x")));
  Alcotest.(check bool) "int and float weights" true
    (eq (desc Expr.((cint 2 * x) + (cint 2 * y))) (desc Expr.((cfloat 0.5 * x) + (cfloat 0.5 * y))));
  Alcotest.(check bool) "non-linear, structural" true
    (eq (desc Expr.(x * y)) (desc Expr.(x * y)))

(* ---- Join-key table ----------------------------------------------------- *)

module Reference_tbl = Hashtbl.Make (Value)

let two_53 = 1 lsl 53

(* Keys with every equality the table must get right: Int/Float twins,
   both zeros, two NaN payloads, ints past 2^53 (where [Value.equal] is not
   transitive: [Int 2^53] and [Int (2^53+1)] both equal [Float 2^53] but
   not each other), NULL, strings and bools. *)
let key_pool =
  [|
    Value.Int 3;
    Value.Float 3.0;
    Value.Int (-3);
    Value.Float (-3.0);
    Value.Int 0;
    Value.Float 0.0;
    Value.Float (-0.0);
    Value.Float Float.nan;
    Value.Float (Int64.float_of_bits 0x7ff0_0000_0000_0001L);
    Value.Int two_53;
    Value.Int (two_53 + 1);
    Value.Float (float_of_int two_53);
    Value.Int (two_53 + 2);
    Value.Float 0.5;
    Value.Null;
    Value.Str "a";
    Value.Str "b";
    Value.Bool true;
    Value.Bool false;
  |]

type op = Add of int | Cons of int | Find of int | Clear

let print_op = function
  | Add k -> "add " ^ Value.to_string key_pool.(k)
  | Cons k -> "cons " ^ Value.to_string key_pool.(k)
  | Find k -> "find " ^ Value.to_string key_pool.(k)
  | Clear -> "clear"

let gen_ops =
  let open QCheck.Gen in
  let key = int_bound (Array.length key_pool - 1) in
  list_size (int_range 1 60)
    (frequency
       [
         (3, map (fun k -> Add k) key);
         (6, map (fun k -> Cons k) key);
         (6, map (fun k -> Find k) key);
         (1, return Clear);
       ])

(* Run the same calls on both tables; every find and every length must
   agree. Data are the step numbers, so a find names the binding it hit. *)
let agrees ops =
  let t = Exec.Join_key.Tbl.create 1 and r = Reference_tbl.create 1 in
  List.for_all Fun.id
    (List.mapi
       (fun step op ->
         (match op with
         | Add k ->
             Exec.Join_key.Tbl.add t key_pool.(k) [ step ];
             Reference_tbl.add r key_pool.(k) [ step ]
         | Cons k ->
             Exec.Join_key.Tbl.cons t key_pool.(k) step;
             let prev = Option.value ~default:[] (Reference_tbl.find_opt r key_pool.(k)) in
             Reference_tbl.replace r key_pool.(k) (step :: prev)
         | Find _ | Clear -> ());
         (match op with
         | Clear ->
             Exec.Join_key.Tbl.clear t;
             Reference_tbl.clear r
         | _ -> ());
         let found =
           match op with
           | Find k ->
               Exec.Join_key.Tbl.find_opt t key_pool.(k)
               = Reference_tbl.find_opt r key_pool.(k)
           | _ -> true
         in
         found && Exec.Join_key.Tbl.length t = Reference_tbl.length r)
       ops)

let prop_join_key_matches_hashtbl =
  QCheck.Test.make ~name:"join-key table answers as Hashtbl.Make (Value)"
    ~count:1000
    (QCheck.make ~print:(QCheck.Print.list print_op) gen_ops)
    agrees

(* Past 2^53 the table matches the reference: a probe equal to two
   bindings finds the one made last, and [cons] through an equal key
   rewrites that binding's key, as [Hashtbl.replace] does. *)
let test_join_key_past_2_53 () =
  let t = Exec.Join_key.Tbl.create 4 and r = Reference_tbl.create 4 in
  let cons k x =
    Exec.Join_key.Tbl.cons t k x;
    Reference_tbl.replace r k
      (x :: Option.value ~default:[] (Reference_tbl.find_opt r k))
  in
  let find k =
    let got = Exec.Join_key.Tbl.find_opt t k in
    Alcotest.(check (option (list string)))
      ("reference find " ^ Value.to_string k)
      (Reference_tbl.find_opt r k) got;
    got
  in
  let f53 = Value.Float (float_of_int two_53) in
  cons (Value.Int two_53) "a";
  cons (Value.Int (two_53 + 1)) "b";
  Alcotest.(check int) "distinct ints" 2 (Exec.Join_key.Tbl.length t);
  Alcotest.(check (option (list string))) "float finds the later" (Some [ "b" ]) (find f53);
  cons f53 "c";
  Alcotest.(check int) "no new binding" 2 (Exec.Join_key.Tbl.length t);
  Alcotest.(check (option (list string))) "2^53 finds the rewritten one"
    (Some [ "c"; "b" ]) (find (Value.Int two_53));
  Alcotest.(check (option (list string))) "2^53+1 too" (Some [ "c"; "b" ])
    (find (Value.Int (two_53 + 1)));
  Alcotest.(check (option (list string))) "2^53+2 is apart" None
    (find (Value.Int (two_53 + 2)))

(* Growth keeps every binding reachable, under either numeric twin. *)
let test_join_key_grows () =
  let t = Exec.Join_key.Tbl.create 1 in
  for i = 0 to 9999 do
    Exec.Join_key.Tbl.cons t (Value.Int i) i
  done;
  for i = 0 to 9999 do
    Exec.Join_key.Tbl.cons t (Value.Float (float_of_int i)) (-i)
  done;
  Alcotest.(check int) "one binding per key" 10_000 (Exec.Join_key.Tbl.length t);
  for i = 0 to 9999 do
    if Exec.Join_key.Tbl.find t (Value.Int i) <> [ -i; i ] then
      Alcotest.failf "key %d lost its chain" i
  done;
  Exec.Join_key.Tbl.map_inplace List.rev t;
  Alcotest.(check (list int)) "map_inplace" [ 7; -7 ]
    (Exec.Join_key.Tbl.find t (Value.Float 7.0))

let test_join_key_hash_agrees_with_equal () =
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if Value.equal a b && Exec.Join_key.hash a <> Exec.Join_key.hash b then
            Alcotest.failf "%s and %s are equal but hash apart" (Value.to_string a)
              (Value.to_string b))
        key_pool;
      if Exec.Join_key.hash a < 0 then
        Alcotest.failf "negative hash for %s" (Value.to_string a))
    key_pool

let suites =
  [
    ( "core.order_key",
      [
        QCheck_alcotest.to_alcotest prop_order_keys_agree;
        Alcotest.test_case "corpus covers both outcomes" `Quick
          test_order_corpus_covers_both;
        Alcotest.test_case "cases" `Quick test_order_key_cases;
      ] );
    ( "exec.join_key",
      [
        QCheck_alcotest.to_alcotest prop_join_key_matches_hashtbl;
        Alcotest.test_case "past 2^53" `Quick test_join_key_past_2_53;
        Alcotest.test_case "growth" `Quick test_join_key_grows;
        Alcotest.test_case "hash agrees with equal" `Quick
          test_join_key_hash_agrees_with_equal;
      ] );
  ]
