open Relalg

let concat_schema (l : Operator.t) (r : Operator.t) = Schema.concat l.schema r.schema

let stats_or stats n = match stats with Some s -> s | None -> Exec_stats.create n

(* Count every tuple pulled from input [i] into [stats]. *)
let tap stats i (op : Operator.t) : Operator.t =
  {
    op with
    next =
      (fun () ->
        match op.next () with
        | Some tu ->
            Exec_stats.bump_depth stats i;
            Some tu
        | None -> None);
  }

(* Reset [stats] on open and count emitted tuples. *)
let emitting stats (op : Operator.t) : Operator.t =
  {
    op with
    open_ =
      (fun () ->
        Exec_stats.reset stats;
        op.open_ ());
    next =
      (fun () ->
        match op.next () with
        | Some tu ->
            Exec_stats.bump_emitted stats;
            Some tu
        | None -> None);
  }

let default_block_size = 1000

let nested_loops ?stats ?(block_size = default_block_size) ~pred (left : Operator.t)
    (right : Operator.t) : Operator.t =
  let stats = stats_or stats 2 in
  let left = tap stats 0 left and right = tap stats 1 right in
  let schema = concat_schema left right in
  let test = Expr.compile_bool schema pred in
  let block = ref [||] in
  let left_done = ref false in
  let block_idx = ref 0 in
  let right_cur = ref None in
  let fill_block () =
    let acc = ref [] in
    let n = ref 0 in
    let rec pull () =
      if !n < block_size then
        match left.next () with
        | Some tu ->
            acc := tu :: !acc;
            incr n;
            pull ()
        | None -> left_done := true
    in
    pull ();
    block := Array.of_list (List.rev !acc);
    Exec_stats.note_buffer stats (Array.length !block);
    block_idx := 0;
    if Array.length !block > 0 then begin
      right.open_ ();
      right_cur := right.next ()
    end
    else right_cur := None
  in
  let rec next () =
    match !right_cur with
    | Some rt when !block_idx < Array.length !block ->
        let lt = !block.(!block_idx) in
        incr block_idx;
        let joined = Tuple.concat lt rt in
        if test joined then Some joined else next ()
    | Some _ ->
        (* Block exhausted against this right tuple: advance right. *)
        block_idx := 0;
        right_cur := right.next ();
        next ()
    | None ->
        (* Right input exhausted for this block (or empty block). *)
        if !left_done then None
        else begin
          fill_block ();
          if Array.length !block = 0 then None else next ()
        end
  in
  emitting stats
    {
      schema;
      open_ =
        (fun () ->
          left.open_ ();
          left_done := false;
          block := [||];
          block_idx := 0;
          right_cur := None);
      next;
      close =
        (fun () ->
          left.close ();
          right.close ());
    }

let index_nested_loops ?stats ?residual ~left_key ~right_schema ~lookup
    (left : Operator.t) : Operator.t =
  let stats = stats_or stats 2 in
  let left = tap stats 0 left in
  let schema = Schema.concat left.schema right_schema in
  let keyf = Expr.compile left.schema left_key in
  let test =
    match residual with
    | None -> fun _ -> true
    | Some pred -> Expr.compile_bool schema pred
  in
  let matches = ref [] in
  let current_left = ref None in
  let rec next () =
    match !matches with
    | rt :: rest ->
        matches := rest;
        let lt = Option.get !current_left in
        let joined = Tuple.concat lt rt in
        if test joined then Some joined else next ()
    | [] -> (
        match left.next () with
        | None -> None
        | Some lt ->
            current_left := Some lt;
            let found = lookup (keyf lt) in
            List.iter (fun _ -> Exec_stats.bump_depth stats 1) found;
            matches := found;
            next ())
  in
  emitting stats
    {
      schema;
      open_ =
        (fun () ->
          left.open_ ();
          matches := [];
          current_left := None);
      next;
      close = left.close;
    }

let hash ?stats ?residual ~left_key ~right_key (left : Operator.t)
    (right : Operator.t) : Operator.t =
  let stats = stats_or stats 2 in
  let left = tap stats 0 left and right = tap stats 1 right in
  let schema = concat_schema left right in
  let lkey = Expr.compile left.schema left_key in
  let rkey = Expr.compile right.schema right_key in
  let test =
    match residual with
    | None -> fun _ -> true
    | Some pred -> Expr.compile_bool schema pred
  in
  let table : Tuple.t list Join_key.Tbl.t = Join_key.Tbl.create 256 in
  let matches = ref [] in
  let current_left = ref None in
  let build () =
    Join_key.Tbl.clear table;
    right.open_ ();
    let buffered = ref 0 in
    let rec pull () =
      match right.next () with
      | Some rt ->
          let k = rkey rt in
          if Join_key.joins k then begin
            Join_key.Tbl.cons table k rt;
            incr buffered
          end;
          pull ()
      | None -> ()
    in
    pull ();
    Exec_stats.note_buffer stats !buffered;
    right.close ()
  in
  let rec next () =
    match !matches with
    | rt :: rest ->
        matches := rest;
        let lt = Option.get !current_left in
        let joined = Tuple.concat lt rt in
        if test joined then Some joined else next ()
    | [] -> (
        match left.next () with
        | None -> None
        | Some lt ->
            current_left := Some lt;
            let k = lkey lt in
            matches :=
              (if Join_key.joins k then
                 Option.value ~default:[] (Join_key.Tbl.find_opt table k)
               else []);
            next ())
  in
  emitting stats
    {
      schema;
      open_ =
        (fun () ->
          build ();
          left.open_ ();
          matches := [];
          current_left := None);
      next;
      close = left.close;
    }

(* Partition an input into [p] spill files by key hash. *)
let partition_input (b : Sort.budget) schema keyf p (op : Operator.t) =
  let files =
    Array.init p (fun _ ->
        Storage.Heap_file.create ~tuples_per_page:b.Sort.tuples_per_page
          b.Sort.pool schema)
  in
  op.open_ ();
  let rec pull () =
    match op.next () with
    | Some tu ->
        let k = keyf tu in
        let slot = if Join_key.joins k then Value.hash k mod p else 0 in
        ignore (Storage.Heap_file.append files.(slot) tu);
        pull ()
    | None -> ()
  in
  pull ();
  op.close ();
  Storage.Buffer_pool.flush b.Sort.pool;
  files

let grace_hash ?stats ?residual ?(partitions = 8) ~left_key ~right_key
    (b : Sort.budget) (left : Operator.t) (right : Operator.t) : Operator.t =
  let stats = stats_or stats 2 in
  let left = tap stats 0 left and right = tap stats 1 right in
  let schema = concat_schema left right in
  let lkey = Expr.compile left.schema left_key in
  let rkey = Expr.compile right.schema right_key in
  let test =
    match residual with
    | None -> fun _ -> true
    | Some pred -> Expr.compile_bool schema pred
  in
  let p = max 2 partitions in
  (* The per-partition in-memory join of two tuple lists (build on right). *)
  let join_partition ltuples rtuples emit =
    if List.length rtuples <= b.Sort.memory_tuples then begin
      let table : Tuple.t list Join_key.Tbl.t = Join_key.Tbl.create 64 in
      List.iter
        (fun rt ->
          let k = rkey rt in
          if Join_key.joins k then Join_key.Tbl.cons table k rt)
        rtuples;
      List.iter
        (fun lt ->
          let k = lkey lt in
          if Join_key.joins k then
            List.iter
              (fun rt ->
                let joined = Tuple.concat lt rt in
                if test joined then emit joined)
              (Option.value ~default:[] (Join_key.Tbl.find_opt table k)))
        ltuples
    end
    else
      (* A pathological partition (e.g. one hot key): block nested loops
         keeps memory bounded at the cost of extra comparisons. *)
      List.iter
        (fun lt ->
          let k = lkey lt in
          List.iter
            (fun rt ->
              if Value.equal k (rkey rt) then begin
                let joined = Tuple.concat lt rt in
                if test joined then emit joined
              end)
            rtuples)
        ltuples
  in
  let results = ref [] in
  let pending = ref [] in
  let compute () =
    (* Probe whether the build side fits: pull up to memory_tuples + 1. *)
    right.open_ ();
    let buffered = ref [] in
    let count = ref 0 in
    let overflow = ref false in
    let rec probe () =
      if !count > b.Sort.memory_tuples then overflow := true
      else
        match right.next () with
        | Some tu ->
            buffered := tu :: !buffered;
            incr count;
            probe ()
        | None -> ()
    in
    probe ();
    Exec_stats.note_buffer stats !count;
    if not !overflow then begin
      right.close ();
      (* Fits: plain in-memory join, streaming the left side. *)
      let acc = ref [] in
      left.open_ ();
      let rec pull () =
        match left.next () with
        | Some lt ->
            acc := lt :: !acc;
            pull ()
        | None -> ()
      in
      pull ();
      left.close ();
      let out = ref [] in
      join_partition (List.rev !acc) (List.rev !buffered) (fun tu -> out := tu :: !out);
      results := List.rev !out;
      pending := !results
    end
    else begin
      (* Spill: finish draining the right side into partitions (the buffered
         prefix is replayed first), partition the left, join pairwise. *)
      let replay = Operator.of_list right.schema (List.rev !buffered) in
      let right_rest =
        {
          Operator.schema = right.schema;
          open_ = (fun () -> replay.Operator.open_ ());
          next =
            (fun () ->
              match replay.Operator.next () with
              | Some tu -> Some tu
              | None -> right.next ());
          close = (fun () -> right.close ());
        }
      in
      let rfiles = partition_input b right.schema rkey p right_rest in
      let lfiles = partition_input b left.schema lkey p left in
      let out = ref [] in
      for i = 0 to p - 1 do
        join_partition
          (Storage.Heap_file.to_list lfiles.(i))
          (Storage.Heap_file.to_list rfiles.(i))
          (fun tu -> out := tu :: !out)
      done;
      results := List.rev !out;
      pending := !results
    end
  in
  emitting stats
    {
      schema;
      open_ = (fun () -> compute ());
      next =
        (fun () ->
          match !pending with
          | [] -> None
          | tu :: rest ->
              pending := rest;
              Some tu);
      close = (fun () -> pending := []);
    }

let merge_only ?stats ?residual ~left_key ~right_key (left : Operator.t)
    (right : Operator.t) : Operator.t =
  let stats = stats_or stats 2 in
  let left = tap stats 0 left and right = tap stats 1 right in
  let schema = concat_schema left right in
  let lkey = Expr.compile left.schema left_key in
  let rkey = Expr.compile right.schema right_key in
  let test =
    match residual with
    | None -> fun _ -> true
    | Some pred -> Expr.compile_bool schema pred
  in
  let lcur = ref None in
  let rgroup = ref [||] in
  let rgroup_key = ref None in
  let rnext_pending = ref None in
  let gi = ref 0 in
  let rpull () =
    match !rnext_pending with
    | Some rt ->
        rnext_pending := None;
        Some rt
    | None -> right.next ()
  in
  (* Load the group of right tuples sharing the next key >= k. *)
  let load_right_group k =
    let rec skip () =
      match rpull () with
      | None -> None
      | Some rt ->
          let rk = rkey rt in
          if Value.compare rk k < 0 then skip () else Some (rt, rk)
    in
    match skip () with
    | None ->
        rgroup := [||];
        rgroup_key := None
    | Some (rt, rk) ->
        let acc = ref [ rt ] in
        let rec fill () =
          match rpull () with
          | None -> ()
          | Some rt' ->
              if Value.compare (rkey rt') rk = 0 then begin
                acc := rt' :: !acc;
                fill ()
              end
              else rnext_pending := Some rt'
        in
        fill ();
        rgroup := Array.of_list (List.rev !acc);
        Exec_stats.note_buffer stats (Array.length !rgroup);
        rgroup_key := Some rk
  in
  let rec next () =
    match !lcur with
    | None -> (
        match left.next () with
        | None -> None
        | Some lt ->
            lcur := Some lt;
            gi := 0;
            next ())
    | Some lt -> (
        let lk = lkey lt in
        match !rgroup_key with
        | Some rk when Value.compare rk lk = 0 ->
            if !gi < Array.length !rgroup then begin
              let joined = Tuple.concat lt !rgroup.(!gi) in
              incr gi;
              if test joined then Some joined else next ()
            end
            else begin
              lcur := None;
              next ()
            end
        | Some rk when Value.compare rk lk > 0 ->
            (* Right group is ahead: advance left. *)
            lcur := None;
            next ()
        | _ ->
            (* No group yet, or the group is behind: load the next one. *)
            load_right_group lk;
            gi := 0;
            if !rgroup_key = None then None else next ())
  in
  emitting stats
    {
      schema;
      open_ =
        (fun () ->
          left.open_ ();
          right.open_ ();
          lcur := None;
          rgroup := [||];
          rgroup_key := None;
          rnext_pending := None;
          gi := 0);
      next;
      close =
        (fun () ->
          left.close ();
          right.close ());
    }

let sort_merge ?stats ?residual ~left_key ~right_key budget (left : Operator.t)
    (right : Operator.t) : Operator.t =
  let sorted_left = Sort.by_expr budget left_key left in
  let sorted_right = Sort.by_expr budget right_key right in
  merge_only ?stats ?residual ~left_key ~right_key sorted_left sorted_right
