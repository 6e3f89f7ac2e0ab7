open Relalg

type input = {
  stream : Operator.scored;
  key : Tuple.t -> Value.t;
}

type polling = Adaptive | Alternate

(* Max-heap on combined score: invert the comparison. *)
let result_heap () =
  Rkutil.Heap.create ~cmp:(fun (_, s1) (_, s2) -> Float.compare s2 s1)

let stats_of m = function
  | Some s ->
      if Exec_stats.inputs s <> m then
        invalid_arg
          (Printf.sprintf "Rank_join: stats record must track exactly %d inputs" m);
      s
  | None -> Exec_stats.create m

(* One tuple per input, concatenated in input order: at m = 2 a single
   [Tuple.concat], the cheapest way to build a joined tuple. *)
let join_parts parts =
  let joined = ref parts.(0) in
  for j = 1 to Array.length parts - 1 do
    joined := Tuple.concat !joined parts.(j)
  done;
  !joined

(* Adaptive polling's order on threshold terms: a NaN term is the largest. *)
let[@inline] above (a : float) b = (not (Float.is_nan b)) && (Float.is_nan a || a > b)

(* Stands in for an input's first and latest entries until it produces. *)
let no_entry = ([||], nan)

let hrjn ?stats ?(polling = Adaptive) ~combine ~inputs () =
  let inputs = Array.of_list inputs in
  let m = Array.length inputs in
  if m < 2 then invalid_arg "Rank_join.hrjn: need at least 2 inputs";
  let schema =
    Array.fold_left
      (fun acc inp -> Schema.concat acc inp.stream.Operator.s_schema)
      inputs.(0).stream.Operator.s_schema
      (Array.sub inputs 1 (m - 1))
  in
  let stats = stats_of m stats in
  let hashes : (Tuple.t * float) list Join_key.Tbl.t array =
    Array.init m (fun _ -> Join_key.Tbl.create 64)
  in
  let queue = result_heap () in
  (* Each input's first and latest entries. Their scores are already boxed,
     so folding them through [combine] boxes only its results. *)
  let top = Array.make m no_entry and last = Array.make m no_entry in
  let started = Array.make m false and finished = Array.make m false in
  let n_started = ref 0 and n_finished = ref 0 in
  (* [bound i] per input, kept current from the moment every input has
     started: it moves only when last_i does. *)
  let bounds = Array.make m nan in
  (* Set once an input is exhausted with nothing buffered (it was empty):
     no further join result can exist, so polling the others is pure
     over-read. *)
  let blocked = ref false in
  let turn = ref 0 in
  (* Scratch for building results: per-input partner lists and the chosen
     tuple per input. *)
  let partners = Array.make m [] and parts = Array.make m [||] in
  let reset () =
    Array.iter Join_key.Tbl.clear hashes;
    Rkutil.Heap.clear queue;
    Array.fill top 0 m no_entry;
    Array.fill last 0 m no_entry;
    Array.fill started 0 m false;
    Array.fill finished 0 m false;
    Array.fill bounds 0 m nan;
    n_started := 0;
    n_finished := 0;
    blocked := false;
    turn := 0;
    Exec_stats.reset stats
  in
  (* f(top_1 .. last_i .. top_m), folded left in input order. *)
  let rec fold i j acc =
    if j = m then acc
    else fold i (j + 1) (combine acc (snd (if j = i then last.(j) else top.(j))))
  in
  let bound i = fold i 1 (snd (if i = 0 then last.(0) else top.(0))) in
  (* Whether a queued result scoring [s] reaches the threshold: the upper
     bound on the score of any join result not yet in the queue, the
     largest term of a live input i, since such a result must use an unseen
     tuple of some live input. Before every input has produced a tuple the
     threshold is +inf — or -inf once an input is exhausted without
     producing anything (no result can ever exist). [s] must reach every
     live term, and a NaN term is reached by nothing, exactly as [s] against
     their [Float.max]; no threshold float is boxed. *)
  let reaches s =
    if !n_started < m then
      s >= if !n_finished > 0 then neg_infinity else infinity
    else begin
      let ok = ref (s >= neg_infinity) in
      for i = 0 to m - 1 do
        if (not finished.(i)) && not (s >= bounds.(i)) then ok := false
      done;
      !ok
    end
  in
  (* Queue every result pinning input [i] to its fresh entry: the product
     of the other inputs' partners for the key, in input order, each
     partner list newest first. *)
  let rec product i ((tu, score) as entry) j acc =
    if j = m then Rkutil.Heap.push queue (join_parts parts, acc)
    else if j = i then begin
      parts.(j) <- tu;
      product i entry (j + 1) (if j = 0 then score else combine acc score)
    end
    else product_over i entry j acc partners.(j)
  and product_over i entry j acc = function
    | [] -> ()
    | (t, s) :: rest ->
        parts.(j) <- t;
        product i entry (j + 1) (if j = 0 then s else combine acc s);
        product_over i entry j acc rest
  in
  let ingest i =
    match inputs.(i).stream.Operator.s_next () with
    | None ->
        finished.(i) <- true;
        incr n_finished;
        if Join_key.Tbl.length hashes.(i) = 0 then blocked := true
    | Some ((tu, _) as entry) ->
        Exec_stats.bump_depth stats i;
        let first = not started.(i) in
        if first then begin
          top.(i) <- entry;
          started.(i) <- true;
          incr n_started
        end;
        last.(i) <- entry;
        if !n_started = m then
          if first then
            (* the tops just became known: every term moves *)
            for j = 0 to m - 1 do
              bounds.(j) <- bound j
            done
          else bounds.(i) <- bound i;
        (* A NULL key joins nothing: the tuple still moved depth and
           last_i above, but it is neither inserted nor probed. *)
        let key = inputs.(i).key tu in
        if Join_key.joins key then begin
          Join_key.Tbl.cons hashes.(i) key entry;
          let all_match = ref true in
          for j = 0 to m - 1 do
            if j <> i then
              match Join_key.Tbl.find hashes.(j) key with
              | l -> partners.(j) <- l
              | exception Not_found -> all_match := false
          done;
          (* the first part's score seeds the fold *)
          if !all_match then product i entry 0 nan
        end;
        Exec_stats.note_buffer stats (Rkutil.Heap.length queue)
  in
  (* The first live input that has produced nothing yet, or -1. *)
  let first_unstarted () =
    let j = ref 0 in
    while !j < m && (finished.(!j) || started.(!j)) do
      incr j
    done;
    if !j < m then !j else -1
  in
  (* Only called while some input is live. *)
  let pick () =
    match polling with
    | Alternate ->
        while finished.(!turn) do
          turn := (!turn + 1) mod m
        done;
        let j = !turn in
        turn := (j + 1) mod m;
        j
    | Adaptive ->
        (* The live input whose threshold term is largest sets the
           threshold, so pulling it lowers the threshold fastest. A NaN
           term counts as the largest: it holds the threshold at NaN until
           its input moves on. *)
        let j = first_unstarted () in
        if j >= 0 then j
        else begin
          let best = ref (-1) in
          for j = 0 to m - 1 do
            if (not finished.(j)) && (!best < 0 || above bounds.(j) bounds.(!best))
            then best := j
          done;
          !best
        end
  in
  let rec next () =
    let stop = !n_finished = m || !blocked in
    if
      Rkutil.Heap.length queue > 0
      && (stop || reaches (snd (Rkutil.Heap.top_exn queue)))
    then begin
      let r = Rkutil.Heap.pop_exn queue in
      Exec_stats.bump_emitted stats;
      Some r
    end
    else if stop then None
    else begin
      ingest (pick ());
      next ()
    end
  in
  let stream =
    {
      Operator.s_schema = schema;
      s_open =
        (fun () ->
          Array.iter (fun inp -> inp.stream.Operator.s_open ()) inputs;
          reset ());
      s_next = next;
      s_close =
        (fun () -> Array.iter (fun inp -> inp.stream.Operator.s_close ()) inputs);
    }
  in
  (stream, stats)

let nrjn ?stats ~combine ~pred ~outer ~inner ~inner_score () =
  let schema = Schema.concat outer.Operator.s_schema inner.Operator.schema in
  let test = Expr.compile_bool schema pred in
  let stats = stats_of 2 stats in
  let queue = result_heap () in
  let top_inner = ref nan in
  let inner_count = ref 0 in
  let have_inner_top = ref false in
  let last_outer = ref nan in
  let started_outer = ref false in
  let done_outer = ref false in
  (* Set after a full inner scan returns zero tuples: the inner is empty, so
     no join result can ever exist and the "+inf until the inner's top score
     is known" bound must collapse instead of draining the whole outer. *)
  let inner_empty = ref false in
  let reset () =
    Rkutil.Heap.clear queue;
    top_inner := nan;
    have_inner_top := false;
    inner_count := 0;
    last_outer := nan;
    started_outer := false;
    done_outer := false;
    inner_empty := false;
    Exec_stats.reset stats
  in
  let threshold () =
    if !done_outer || !inner_empty then neg_infinity
    else if not (!started_outer && !have_inner_top) then infinity
    else combine !last_outer !top_inner
  in
  (* Join one outer tuple against the whole inner input. *)
  let process_outer () =
    match outer.Operator.s_next () with
    | None -> done_outer := true
    | Some (ot, oscore) ->
        Exec_stats.bump_depth stats 0;
        started_outer := true;
        last_outer := oscore;
        inner.Operator.open_ ();
        let scanned = ref 0 in
        let rec loop () =
          match inner.Operator.next () with
          | None -> ()
          | Some it ->
              incr scanned;
              let iscore = inner_score it in
              if not !have_inner_top then begin
                top_inner := iscore;
                have_inner_top := true
              end
              else if iscore > !top_inner then top_inner := iscore;
              let joined = Tuple.concat ot it in
              if test joined then
                Rkutil.Heap.push queue (joined, combine oscore iscore);
              loop ()
        in
        loop ();
        if !scanned = 0 then inner_empty := true;
        if !scanned > !inner_count then inner_count := !scanned;
        Exec_stats.note_depth stats 1 !inner_count;
        Exec_stats.note_buffer stats (Rkutil.Heap.length queue)
  in
  let rec next () =
    let t = threshold () in
    let finished = !done_outer || !inner_empty in
    match Rkutil.Heap.peek queue with
    | Some (_, s) when s >= t || finished ->
        let tu, s = Rkutil.Heap.pop_exn queue in
        Exec_stats.bump_emitted stats;
        Some (tu, s)
    | _ ->
        if finished then
          (match Rkutil.Heap.pop queue with
          | Some (tu, s) ->
              Exec_stats.bump_emitted stats;
              Some (tu, s)
          | None -> None)
        else begin
          process_outer ();
          next ()
        end
  in
  let stream =
    {
      Operator.s_schema = schema;
      s_open =
        (fun () ->
          outer.Operator.s_open ();
          reset ());
      s_next = next;
      s_close =
        (fun () ->
          outer.Operator.s_close ();
          inner.Operator.close ())
    }
  in
  (stream, stats)
