(* Shared plumbing for the experiment harness: workload construction, plan
   builders for the two canonical ranking strategies, and table printing. *)

open Relalg

let line = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let row fmt = Printf.printf fmt

(* Two scored tables A, B with the given cardinality and join selectivity
   1/domain; score indexes included. *)
let two_table_catalog ?(n = 5000) ?(pool_frames = 64) ~domain ~seed () =
  (* A pool smaller than the tables, so unclustered ranked access pays a
     random I/O per tuple — the regime the paper's Figure 1 studies. *)
  let cat = Storage.Catalog.create ~pool_frames () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + (31 * i)))
           ~name ~n ~key_domain:domain ()))
    [ "A"; "B" ];
  cat

let three_table_catalog ?(n = 5000) ?(pool_frames = 64) ~domain ~seed () =
  let cat = Storage.Catalog.create ~pool_frames () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (seed + (31 * i)))
           ~name ~n ~key_domain:domain ()))
    [ "A"; "B"; "C" ];
  cat

let score_of t = Expr.col ~relation:t "score"

let topk_query ?(weights = []) ~k tables =
  let weight_of t =
    match List.assoc_opt t weights with Some w -> w | None -> 1.0
  in
  let relations =
    List.map
      (fun t -> Core.Logical.base ~score:(score_of t) ~weight:(weight_of t) t)
      tables
  in
  let rec chain = function
    | a :: (b :: _ as rest) -> Core.Logical.equijoin (a, "key") (b, "key") :: chain rest
    | _ -> []
  in
  Core.Logical.make ~relations ~joins:(chain tables) ~k ()

let cond ~left ~right =
  {
    Core.Logical.left_table = left;
    left_column = "key";
    right_table = right;
    right_column = "key";
  }

let desc_order t = { Core.Plan.expr = score_of t; direction = Core.Interesting_orders.Desc }

let index_scan_desc cat t =
  let ix =
    match Storage.Catalog.find_index_on_expr cat ~table:t (score_of t) with
    | Some ix -> ix.Storage.Catalog.ix_name
    | None -> failwith ("no score index on " ^ t)
  in
  Core.Plan.Index_scan { table = t; index = ix; key = score_of t; desc = true }

(* A binary HRJN joining [left_table].key = [right_table].key. *)
let hrjn ~left_table ~right_table left right ~left_score ~right_score =
  Core.Plan.Rank_join
    {
      inputs = [ left; right ];
      scores = [ left_score; right_score ];
      keys = [ (left_table, "key"); (right_table, "key") ];
    }

(* The canonical two-way rank-join plan: HRJN over descending index scans. *)
let hrjn_plan cat =
  hrjn ~left_table:"A" ~right_table:"B" (index_scan_desc cat "A")
    (index_scan_desc cat "B") ~left_score:(score_of "A")
    ~right_score:(score_of "B")

(* The canonical sort plan: hash join then a blocking sort on the combined
   score. *)
let sort_plan _cat =
  Core.Plan.Sort
    {
      order =
        {
          Core.Plan.expr = Expr.Add (score_of "A", score_of "B");
          direction = Core.Interesting_orders.Desc;
        };
      input =
        Core.Plan.Join
          {
            algo = Core.Plan.Hash;
            cond = cond ~left:"A" ~right:"B";
            left = Core.Plan.Table_scan { table = "A" };
            right = Core.Plan.Table_scan { table = "B" };
            left_score = None;
            right_score = None;
          };
    }

(* Plan P of Figure 11: HRJN(HRJN(A,B),C), all inputs via descending score
   indexes. *)
let plan_p cat =
  hrjn ~left_table:"B" ~right_table:"C" (hrjn_plan cat)
    (index_scan_desc cat "C")
    ~left_score:(Expr.Add (score_of "A", score_of "B"))
    ~right_score:(score_of "C")

let pct_error ~actual ~estimate =
  if actual = 0.0 then 0.0
  else 100.0 *. Float.abs (estimate -. actual) /. actual
