open Relalg

type t = {
  v_schema : Schema.t;
  v_open : unit -> unit;
  v_next : unit -> Batch.t option;
  v_close : unit -> unit;
}

let stats_or stats n = match stats with Some s -> s | None -> Exec_stats.create n

let schema v = v.v_schema

let to_operator (v : t) : Operator.t =
  let cur = ref None in
  let idx = ref 0 in
  let rec next () =
    match !cur with
    | Some b when !idx < Batch.length b ->
        let tu = Batch.get b !idx in
        incr idx;
        Some tu
    | _ -> (
        match v.v_next () with
        | None ->
            cur := None;
            None
        | Some b ->
            cur := Some b;
            idx := 0;
            next ())
  in
  {
    Operator.schema = v.v_schema;
    open_ =
      (fun () ->
        cur := None;
        idx := 0;
        v.v_open ());
    next;
    close =
      (fun () ->
        cur := None;
        v.v_close ());
  }

let of_operator ?(rows = Batch.default_rows) (op : Operator.t) : t =
  let rows = max 1 rows in
  {
    v_schema = op.Operator.schema;
    v_open = op.Operator.open_;
    v_next =
      (fun () ->
        let acc = ref [] in
        let n = ref 0 in
        let rec pull () =
          if !n < rows then
            match op.Operator.next () with
            | Some tu ->
                acc := tu :: !acc;
                incr n;
                pull ()
            | None -> ()
        in
        pull ();
        if !n = 0 then None else Some (Batch.of_list op.Operator.schema (List.rev !acc)));
    v_close = op.Operator.close;
  }

let heap_scan ?stats (info : Storage.Catalog.table_info) : t =
  let stats = stats_or stats 0 in
  let heap = info.Storage.Catalog.tb_heap in
  let page = ref 0 in
  {
    v_schema = info.Storage.Catalog.tb_schema;
    v_open =
      (fun () ->
        Exec_stats.reset stats;
        page := 0);
    v_next =
      (fun () ->
        let total = Storage.Heap_file.n_pages heap in
        let acc = ref [] in
        let n = ref 0 in
        while !n < Batch.default_rows && !page < total do
          let rows = Storage.Heap_file.page_rows heap !page in
          incr page;
          if Array.length rows > 0 then begin
            acc := rows :: !acc;
            n := !n + Array.length rows
          end
        done;
        if !n = 0 then None
        else begin
          Exec_stats.add_emitted stats !n;
          Some (Batch.of_rows info.Storage.Catalog.tb_schema (Array.concat (List.rev !acc)))
        end);
    v_close = (fun () -> ());
  }

let filter ?stats pred (input : t) : t =
  let stats = stats_or stats 1 in
  let kernel = Batch.pred_kernel input.v_schema pred in
  let rec next () =
    match input.v_next () with
    | None -> None
    | Some b ->
        Exec_stats.add_depth stats 0 (Batch.length b);
        kernel b;
        let kept = Batch.length b in
        if kept = 0 then next ()
        else begin
          Exec_stats.add_emitted stats kept;
          Some b
        end
  in
  {
    v_schema = input.v_schema;
    v_open =
      (fun () ->
        Exec_stats.reset stats;
        input.v_open ());
    v_next = next;
    v_close = input.v_close;
  }

let hash_join ?stats ?residual ~left_key ~right_key (b : Sort.budget) (left : t)
    (right : Operator.t) : t =
  let stats = stats_or stats 2 in
  let schema = Schema.concat left.v_schema right.Operator.schema in
  let lkey = Expr.compile left.v_schema left_key in
  let rkey = Expr.compile right.Operator.schema right_key in
  let test =
    match residual with
    | None -> fun _ -> true
    | Some pred -> Expr.compile_bool schema pred
  in
  let pending = ref [] in
  let compute () =
    Exec_stats.reset stats;
    (* Output batch assembly. *)
    let out = ref [] in
    let fill = ref [] in
    let fill_n = ref 0 in
    let flush () =
      if !fill_n > 0 then begin
        out := Batch.of_rows schema (Array.of_list (List.rev !fill)) :: !out;
        fill := [];
        fill_n := 0
      end
    in
    let emit tu =
      fill := tu :: !fill;
      incr fill_n;
      if !fill_n >= Batch.default_rows then flush ()
    in
    (* Probe whether the build side fits: pull up to memory_tuples + 1,
       exactly like the tuple-at-a-time grace hash join. *)
    right.Operator.open_ ();
    let buffered = ref [] in
    let count = ref 0 in
    let overflow = ref false in
    let rec probe () =
      if !count > b.Sort.memory_tuples then overflow := true
      else
        match right.Operator.next () with
        | Some tu ->
            Exec_stats.bump_depth stats 1;
            buffered := tu :: !buffered;
            incr count;
            probe ()
        | None -> ()
    in
    probe ();
    Exec_stats.note_buffer stats !count;
    if not !overflow then begin
      right.Operator.close ();
      (* Fits: vectorized build + probe. The table is built by consing in
         right-arrival order, so each chain is reverse-arrival — the probe
         order the serial join produces per left tuple. *)
      let table : Tuple.t list Join_key.Tbl.t = Join_key.Tbl.create 256 in
      List.iter
        (fun rt ->
          let k = rkey rt in
          if Join_key.joins k then Join_key.Tbl.cons table k rt)
        (List.rev !buffered);
      left.v_open ();
      let rec drain () =
        match left.v_next () with
        | None -> ()
        | Some bt ->
            Exec_stats.add_depth stats 0 (Batch.length bt);
            Batch.iter
              (fun lt ->
                let k = lkey lt in
                if Join_key.joins k then
                  List.iter
                    (fun rt ->
                      let joined = Tuple.concat lt rt in
                      if test joined then emit joined)
                    (Option.value ~default:[] (Join_key.Tbl.find_opt table k)))
              bt;
            drain ()
      in
      drain ();
      left.v_close ()
    end
    else begin
      (* Spill: hand the already-buffered prefix plus the rest of the right
         stream back to the tuple-at-a-time grace hash join, which owns the
         partitioning machinery. Depth/emitted stay on [stats] (the
         delegate gets a throwaway record); the buffered prefix was counted
         during the probe above, so the replay is left untapped. *)
      let replay = Operator.of_list right.Operator.schema (List.rev !buffered) in
      let right_rest =
        {
          Operator.schema = right.Operator.schema;
          open_ = (fun () -> replay.Operator.open_ ());
          next =
            (fun () ->
              match replay.Operator.next () with
              | Some tu -> Some tu
              | None -> (
                  match right.Operator.next () with
                  | Some tu ->
                      Exec_stats.bump_depth stats 1;
                      Some tu
                  | None -> None));
          close = (fun () -> right.Operator.close ());
        }
      in
      let left_op = to_operator left in
      let left_tapped =
        {
          left_op with
          Operator.next =
            (fun () ->
              match left_op.Operator.next () with
              | Some tu ->
                  Exec_stats.bump_depth stats 0;
                  Some tu
              | None -> None);
        }
      in
      let gop =
        Join.grace_hash ?residual ~stats:(Exec_stats.create 2) ~left_key ~right_key b
          left_tapped right_rest
      in
      gop.Operator.open_ ();
      let rec drain () =
        match gop.Operator.next () with
        | Some tu ->
            emit tu;
            drain ()
        | None -> ()
      in
      drain ();
      gop.Operator.close ()
    end;
    flush ();
    pending := List.rev !out
  in
  {
    v_schema = schema;
    v_open = (fun () -> compute ());
    v_next =
      (fun () ->
        match !pending with
        | [] -> None
        | bt :: rest ->
            pending := rest;
            Exec_stats.add_emitted stats (Batch.length bt);
            Some bt);
    v_close = (fun () -> pending := []);
  }

let fused_top_k ?sort_stats ?topk_stats (b : Sort.budget) ~desc ~k expr (input : t) :
    Operator.t =
  let sort_stats = stats_or sort_stats 1 in
  let topk_stats = stats_or topk_stats 1 in
  let score = Batch.score_kernel input.v_schema expr in
  let cap = max k 0 in
  let results = ref [] in
  let compute () =
    Exec_stats.reset sort_stats;
    Exec_stats.reset topk_stats;
    (* Bounded binary heap over (score, arrival-seq): the root is the
       weakest keeper. Under Float.compare NaN is the smallest score, so a
       descending sort puts NaN last (weakest) and an ascending one puts it
       first (strongest) — exactly the serial sort's comparator. Ties break
       on arrival order, reproducing the in-memory sort's stability. *)
    let hs = Array.make (max cap 1) 0.0 in
    let hq = Array.make (max cap 1) 0 in
    let ht = Array.make (max cap 1) None in
    let size = ref 0 in
    (* [weaker s1 q1 s2 q2]: candidate 1 strictly weaker (sorts later). *)
    let weaker s1 q1 s2 q2 =
      let c = Float.compare s1 s2 in
      if c <> 0 then if desc then c < 0 else c > 0 else q1 > q2
    in
    let wi i j = weaker hs.(i) hq.(i) hs.(j) hq.(j) in
    let swap i j =
      let s = hs.(i) and q = hq.(i) and t = ht.(i) in
      hs.(i) <- hs.(j);
      hq.(i) <- hq.(j);
      ht.(i) <- ht.(j);
      hs.(j) <- s;
      hq.(j) <- q;
      ht.(j) <- t
    in
    let rec sift_up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if wi i p then begin
          swap i p;
          sift_up p
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = ref i in
      if l < !size && wi l !m then m := l;
      if r < !size && wi r !m then m := r;
      if !m <> i then begin
        swap i !m;
        sift_down !m
      end
    in
    let seq = ref 0 in
    let n = ref 0 in
    input.v_open ();
    let rec drain () =
      match input.v_next () with
      | None -> ()
      | Some bt ->
          let bn = Batch.length bt in
          Exec_stats.add_depth sort_stats 0 bn;
          n := !n + bn;
          let scores = score bt in
          for j = 0 to bn - 1 do
            let s = scores.(j) in
            let q = !seq in
            incr seq;
            if !size < cap then begin
              hs.(!size) <- s;
              hq.(!size) <- q;
              ht.(!size) <- Some (Batch.get bt j);
              incr size;
              sift_up (!size - 1)
            end
            else if cap > 0 && weaker hs.(0) hq.(0) s q then begin
              hs.(0) <- s;
              hq.(0) <- q;
              ht.(0) <- Some (Batch.get bt j);
              sift_down 0
            end
          done;
          drain ()
    in
    drain ();
    input.v_close ();
    let kept = ref [] in
    for i = 0 to !size - 1 do
      kept := (hs.(i), hq.(i), Option.get ht.(i)) :: !kept
    done;
    let sorted =
      List.sort
        (fun (s1, q1, _) (s2, q2, _) ->
          let c = if desc then Float.compare s2 s1 else Float.compare s1 s2 in
          if c <> 0 then c else compare (q1 : int) q2)
        !kept
    in
    results := List.map (fun (_, _, tu) -> tu) sorted;
    let m = !size in
    if !n > 0 then Exec_stats.note_buffer sort_stats (min !n b.Sort.memory_tuples);
    Exec_stats.add_emitted sort_stats m;
    Exec_stats.add_depth topk_stats 0 m;
    Exec_stats.add_emitted topk_stats m
  in
  {
    Operator.schema = input.v_schema;
    open_ = (fun () -> compute ());
    next =
      (fun () ->
        match !results with
        | [] -> None
        | tu :: rest ->
            results := rest;
            Some tu);
    close = (fun () -> results := []);
  }

let top_n ?stats ~k expr (input : t) : Operator.scored =
  let stats = stats_or stats 1 in
  let score = Batch.score_kernel input.v_schema expr in
  let results = ref [] in
  let compute () =
    let heap = Rkutil.Heap.create ~cmp:Top_n.candidate_cmp in
    Exec_stats.reset stats;
    input.v_open ();
    let rec drain () =
      match input.v_next () with
      | None -> ()
      | Some bt ->
          let bn = Batch.length bt in
          Exec_stats.add_depth stats 0 bn;
          let scores = score bt in
          for j = 0 to bn - 1 do
            let s = scores.(j) in
            (* NaN never ranks — identical policy to Top_n.by_expr. *)
            if not (Float.is_nan s) then begin
              let tu = Batch.get bt j in
              if Rkutil.Heap.length heap < k then Rkutil.Heap.push heap (tu, s)
              else begin
                match Rkutil.Heap.peek heap with
                | Some worst when Top_n.candidate_cmp (tu, s) worst > 0 ->
                    ignore (Rkutil.Heap.pop heap);
                    Rkutil.Heap.push heap (tu, s)
                | _ -> ()
              end;
              Exec_stats.note_buffer stats (Rkutil.Heap.length heap)
            end
          done;
          drain ()
    in
    drain ();
    input.v_close ();
    results := List.rev (Rkutil.Heap.drain heap)
  in
  {
    Operator.s_schema = input.v_schema;
    s_open = (fun () -> compute ());
    s_next =
      (fun () ->
        match !results with
        | [] -> None
        | e :: rest ->
            results := rest;
            Exec_stats.bump_emitted stats;
            Some e);
    s_close = (fun () -> results := []);
  }

let scope (m : Metrics.t) (node : Metrics.node) (v : t) : t =
  {
    v with
    v_open = (fun () -> Metrics.scoped m node v.v_open);
    v_next = (fun () -> Metrics.scoped m node v.v_next);
    v_close = (fun () -> Metrics.scoped m node v.v_close);
  }
