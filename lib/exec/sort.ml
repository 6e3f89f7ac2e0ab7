open Relalg
open Storage

type budget = {
  pool : Buffer_pool.t;
  memory_tuples : int;
  tuples_per_page : int;
  fan_in : int;
}

let default_memory_tuples = 10_000

let default_fan_in = 8

let budget ?(memory_tuples = default_memory_tuples) ?(tuples_per_page = 50)
    ?(fan_in = default_fan_in) pool =
  {
    pool;
    memory_tuples = max 2 memory_tuples;
    tuples_per_page = max 1 tuples_per_page;
    fan_in = max 2 fan_in;
  }

(* A run is either resident (small inputs) or a spilled heap file. *)
type run =
  | Mem of Tuple.t list
  | Spilled of Heap_file.t

let spill b schema tuples =
  let hf = Heap_file.create ~tuples_per_page:b.tuples_per_page b.pool schema in
  Heap_file.load hf tuples;
  Buffer_pool.flush b.pool;
  Spilled hf

let run_cursor = function
  | Mem tuples ->
      let rest = ref tuples in
      fun () ->
        (match !rest with
        | [] -> None
        | tu :: tl ->
            rest := tl;
            Some tu)
  | Spilled hf -> Heap_file.scan hf

(* Merge a batch of runs into one, spilling the result. *)
let merge_batch b schema cmp runs =
  let cursors = List.map run_cursor runs in
  let heap =
    Rkutil.Heap.create ~cmp:(fun (t1, _) (t2, _) -> cmp t1 t2)
  in
  List.iteri
    (fun i cur -> match cur () with Some tu -> Rkutil.Heap.push heap (tu, i) | None -> ())
    cursors;
  let cursor_arr = Array.of_list cursors in
  let out = Heap_file.create ~tuples_per_page:b.tuples_per_page b.pool schema in
  let rec drain () =
    match Rkutil.Heap.pop heap with
    | None -> ()
    | Some (tu, i) ->
        ignore (Heap_file.append out tu);
        (match cursor_arr.(i) () with
        | Some tu' -> Rkutil.Heap.push heap (tu', i)
        | None -> ());
        drain ()
  in
  drain ();
  Buffer_pool.flush b.pool;
  Spilled out

let rec merge_all b schema cmp runs =
  match runs with
  | [] -> Mem []
  | [ r ] -> r
  | _ ->
      let rec batches acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | r :: rest ->
            if n = b.fan_in then batches (List.rev cur :: acc) [ r ] 1 rest
            else batches acc (r :: cur) (n + 1) rest
      in
      let groups = batches [] [] 0 runs in
      let merged =
        List.map
          (function [ r ] -> r | group -> merge_batch b schema cmp group)
          groups
      in
      merge_all b schema cmp merged

let sort_input b stats cmp (op : Operator.t) =
  op.open_ ();
  let runs = ref [] in
  let batch = ref [] in
  let batch_size = ref 0 in
  let flush_batch ~force_spill =
    if !batch_size > 0 then begin
      let sorted = List.stable_sort cmp (List.rev !batch) in
      let run =
        if force_spill then spill b op.schema sorted else Mem sorted
      in
      runs := run :: !runs;
      batch := [];
      batch_size := 0
    end
  in
  let rec consume () =
    match op.next () with
    | Some tu ->
        Exec_stats.bump_depth stats 0;
        batch := tu :: !batch;
        incr batch_size;
        Exec_stats.note_buffer stats !batch_size;
        if !batch_size >= b.memory_tuples then flush_batch ~force_spill:true;
        consume ()
    | None -> ()
  in
  consume ();
  op.close ();
  (* The final partial batch only needs spilling if other runs exist. *)
  let have_spilled = !runs <> [] in
  flush_batch ~force_spill:have_spilled;
  merge_all b op.schema cmp (List.rev !runs)

let by_cmp ?stats b ~cmp (op : Operator.t) : Operator.t =
  let stats = match stats with Some s -> s | None -> Exec_stats.create 1 in
  let cursor = ref (fun () -> None) in
  {
    schema = op.schema;
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        cursor := run_cursor (sort_input b stats cmp op));
    next =
      (fun () ->
        match !cursor () with
        | Some tu ->
            Exec_stats.bump_emitted stats;
            Some tu
        | None -> None);
    close = (fun () -> cursor := fun () -> None);
  }

let by_expr ?stats b ?(desc = false) expr (op : Operator.t) : Operator.t =
  let f = Expr.compile_float op.schema expr in
  let cmp t1 t2 =
    let c = Float.compare (f t1) (f t2) in
    if desc then -c else c
  in
  by_cmp ?stats b ~cmp op

let scored_desc ?stats b expr (op : Operator.t) : Operator.scored =
  let sorted = by_expr ?stats b ~desc:true expr op in
  let score = Expr.compile_float op.schema expr in
  Operator.with_score score sorted
