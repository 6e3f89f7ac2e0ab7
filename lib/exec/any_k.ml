(* anyK-style ranked enumeration over an acyclic (path/star) join tree.

   The operator materializes each input, prunes dangling tuples with one
   bottom-up dynamic-programming pass (every surviving tuple knows the best
   total score of any join answer rooted in its subtree), and then
   enumerates complete join answers in non-increasing score order with a
   Lawler-style candidate heap: each emitted answer spawns at most m
   successor candidates, so the per-result delay after the build phase is
   O(m log(candidates)).

   Join-tree encoding: input 0 is the root; input i >= 1 joins an earlier
   input parent(i) < i on an equi-key. Children therefore always carry a
   larger index than their parent, which makes a reverse index sweep a
   valid bottom-up order.

   Build layout. Each node keeps its survivors in parallel columns (tuple,
   own score, subtree best) and groups them by join key in CSR form: group
   g owns the member slots [start g, start (g+1)). The root is one group.
   While a parent is drained, each of its survivors records the group it
   joins in every child (the child's [link] column), so enumeration moves
   over integer positions and never evaluates or hashes a key again. Slot 0
   of a group is a maximum of [best], tracked while the node is drained;
   that is all the bottom-up pass reads. The tail (slots 1 and up) is
   ordered on demand: it becomes a heap the first time a successor needs
   slot 1, and each later slot is popped from that heap when a successor
   first reaches it. Slot 0 never moves, since live candidates may rest on
   it. *)

open Relalg

type input = { i_op : Operator.t; i_score : Tuple.t -> float }

type counts = {
  drained : int;
  survivors : int;
  groups : int;
  groups_sorted : int;
}

(* Growable columns in blocks of 64 elements, reached through segments of
   64 blocks: no heap block they allocate exceeds 128 words below 2^19
   elements. OCaml 5 mallocs larger blocks, and when worker domains free
   them they fragment the C allocator's per-thread arenas. [Col] keeps the
   layout over any block type; [Floats] and [Ints] read and write their
   blocks unboxed, a [Float.Array.t] and an [int array]. Their accessors
   are inlined: a float returned from a call is boxed. *)
module Col = struct
  let bits = 6

  let mask = (1 lsl bits) - 1

  type 'b t = {
    empty : 'b;  (* fills unused segment entries *)
    fresh : unit -> 'b;  (* a new block of 64 elements *)
    mutable segs : 'b array array;
    mutable len : int;
  }

  let create ~empty ~fresh = { empty; fresh; segs = [||]; len = 0 }

  let length c = c.len

  let[@inline] block c i = c.segs.(i lsr (2 * bits)).((i lsr bits) land mask)

  (* Room for one more element; its index. *)
  let grow c =
    let i = c.len in
    let s = i lsr (2 * bits) in
    if i land ((1 lsl (2 * bits)) - 1) = 0 then begin
      if s = Array.length c.segs then begin
        let segs = Array.make (max 4 (2 * s)) [||] in
        Array.blit c.segs 0 segs 0 s;
        c.segs <- segs
      end;
      c.segs.(s) <- Array.make (1 lsl bits) c.empty
    end;
    if i land mask = 0 then c.segs.(s).((i lsr bits) land mask) <- c.fresh ();
    c.len <- i + 1;
    i
end

module Floats = struct
  let create () =
    Col.create ~empty:(Float.Array.create 0) ~fresh:(fun () ->
        Float.Array.make (1 lsl Col.bits) 0.0)

  let[@inline] get c i = Float.Array.get (Col.block c i) (i land Col.mask)

  let[@inline] set c i x = Float.Array.set (Col.block c i) (i land Col.mask) x

  let[@inline] push c x = set c (Col.grow c) x
end

module Ints = struct
  let create () =
    Col.create ~empty:[||] ~fresh:(fun () -> Array.make (1 lsl Col.bits) 0)

  let[@inline] get c i = (Col.block c i).(i land Col.mask)

  let[@inline] set c i (x : int) = (Col.block c i).(i land Col.mask) <- x

  let[@inline] push c x = set c (Col.grow c) x
end

module Tuples = struct
  let create () =
    Col.create ~empty:[||] ~fresh:(fun () -> Array.make (1 lsl Col.bits) [||])

  let[@inline] get c i : Tuple.t = (Col.block c i).(i land Col.mask)

  let push c (x : Tuple.t) =
    let i = Col.grow c in
    (Col.block c i).(i land Col.mask) <- x
end

type node = {
  tup : Tuple.t array Col.t;
  own : Float.Array.t Col.t;  (* the survivor's own partial score *)
  best : Float.Array.t Col.t;  (* own + the best completion of every child subtree *)
  head_best : Float.Array.t Col.t;  (* group g's maximum [best], its head's *)
  start : int array Col.t;  (* group g's first member slot; one sentinel at the end *)
  members : int array Col.t;  (* survivor positions, group after group *)
  ready : int array Col.t;  (* group g's leading slots in final order (0: head only) *)
  link : int array Col.t;  (* by parent survivor: the group of this node it joins *)
}

let empty_node () =
  {
    tup = Tuples.create ();
    own = Floats.create ();
    best = Floats.create ();
    head_best = Floats.create ();
    start = Ints.create ();
    members = Ints.create ();
    ready = Ints.create ();
    link = Ints.create ();
  }

(* A group tail's heap, laid out backwards from the group's end slot [hi]:
   heap position k sits in member slot hi - 1 - k. Top-level, so ordering a
   tail builds no closures. *)
let[@inline] tail_key nd hi k =
  Floats.get nd.best (Ints.get nd.members (hi - 1 - k))

let swap nd hi a b =
  let x = Ints.get nd.members (hi - 1 - a) in
  Ints.set nd.members (hi - 1 - a) (Ints.get nd.members (hi - 1 - b));
  Ints.set nd.members (hi - 1 - b) x

let rec sift nd hi k len =
  let l = (2 * k) + 1 in
  if l < len then begin
    let c =
      if l + 1 < len && tail_key nd hi (l + 1) > tail_key nd hi l then l + 1
      else l
    in
    if tail_key nd hi c > tail_key nd hi k then begin
      swap nd hi k c;
      sift nd hi c len
    end
  end

type cand = {
  total : float;  (* exact total score of this fully resolved answer *)
  pos : int array;  (* per node: the chosen survivor *)
  slot : int array;  (* per node: its member slot within its group *)
  branch : int;  (* Lawler rule: successors may bump coordinates >= branch *)
}

let enumerate_counted ?stats ?(tick = fun () -> ()) ~schema ~inputs
    ~(keys : (int * (Tuple.t -> Value.t) * (Tuple.t -> Value.t)) list) () =
  let inputs = Array.of_list inputs in
  let m = Array.length inputs in
  if m = 0 then invalid_arg "Any_k.enumerate: no inputs";
  let keys = Array.of_list keys in
  if Array.length keys <> m - 1 then
    invalid_arg "Any_k.enumerate: need one key binding per non-root input";
  Array.iteri
    (fun j (p, _, _) ->
      if p < 0 || p > j then
        invalid_arg "Any_k.enumerate: parent must precede child")
    keys;
  let stats =
    match stats with
    | Some s ->
        if Exec_stats.inputs s <> m then
          invalid_arg
            (Printf.sprintf "Any_k.enumerate: stats record must track %d inputs"
               m);
        s
    | None -> Exec_stats.create m
  in
  let parent i =
    let p, _, _ = keys.(i - 1) in
    p
  in
  let children =
    Array.init m (fun i ->
        List.init (m - 1) succ
        |> List.filter (fun c -> parent c = i)
        |> Array.of_list)
  in
  (* Mutable run state, rebuilt by s_open. *)
  let nodes = Array.init m (fun _ -> empty_node ()) in
  let heap =
    Rkutil.Heap.create ~cmp:(fun a b -> Float.compare b.total a.total)
  in
  let started = ref false in
  let survivors = ref 0 and drained = ref 0 and groups = ref 0 in
  let sorted = ref 0 in
  let poll j = if j land 255 = 0 then tick () in
  let member nd g j = Ints.get nd.members (Ints.get nd.start g + j) in
  let group_size nd g = Ints.get nd.start (g + 1) - Ints.get nd.start g in
  (* Drain input [i] and lay out its survivors. [tables.(c)] maps a key of
     child c (already built) to its group id. *)
  let build_node tables i =
    let nd = empty_node () in
    let kids = children.(i) in
    let joined = Array.make (Array.length kids) 0 in
    (* Key to group: a group id is its key's dense position. *)
    let tbl = Join_key.Tbl.create 64 in
    let group_of = Ints.create () in
    (* Per group: its member count (later its first slot in [start]) and
       the first survivor reaching the group's maximum [best]. *)
    let head = Ints.create () in
    let new_group () =
      Ints.push nd.start 0;
      Ints.push head 0;
      Floats.push nd.head_best 0.0;
      Col.length nd.start - 1
    in
    (* The group of survivor [tu]; -1 when its key is NULL. *)
    let group tu =
      if i = 0 then if Col.length nd.start = 0 then new_group () else 0
      else
        let _, _, ck = keys.(i - 1) in
        let k = ck tu in
        if not (Join_key.joins k) then -1
        else begin
          let g = Join_key.Tbl.find_or_add tbl k () in
          if g = Col.length nd.start then ignore (new_group () : int);
          g
        end
    in
    (* [acc] plus the best completion of every child subtree for [tu], whose
       joined groups are left in [joined]; NaN when [tu] dangles. *)
    let rec resolve_kids tu acc j =
      if j = Array.length kids then acc
      else
        let c = kids.(j) in
        let _, pk, _ = keys.(c - 1) in
        let k = pk tu in
        let g =
          if Join_key.joins k then Join_key.Tbl.position tables.(c) k else -1
        in
        if g < 0 then nan
        else begin
          joined.(j) <- g;
          resolve_kids tu (acc +. Floats.get nodes.(c).head_best g) (j + 1)
        end
    in
    let op = inputs.(i).i_op and score = inputs.(i).i_score in
    op.Operator.open_ ();
    let rec drain n =
      match op.Operator.next () with
      | None -> n
      | Some tu ->
          Exec_stats.bump_depth stats i;
          poll (n + 1);
          let s = score tu in
          let b = if Float.is_nan s then nan else resolve_kids tu s 0 in
          let g = if Float.is_nan b then -1 else group tu in
          if g >= 0 then begin
            let p = Col.length nd.tup in
            Tuples.push nd.tup tu;
            Floats.push nd.own s;
            Floats.push nd.best b;
            Ints.push group_of g;
            let count = Ints.get nd.start g in
            Ints.set nd.start g (count + 1);
            if count = 0 || b > Floats.get nd.head_best g then begin
              Ints.set head g p;
              Floats.set nd.head_best g b
            end;
            for j = 0 to Array.length kids - 1 do
              Ints.push nodes.(kids.(j)).link joined.(j)
            done
          end;
          drain (n + 1)
    in
    let n = drain 0 in
    op.Operator.close ();
    let n_surv = Col.length nd.tup and n_groups = Col.length nd.start in
    (* Counts become end offsets. A back-to-front fill of every member but
       the head then moves each offset down to the group's second slot,
       keeping input order in the tail, and the head takes slot 0. *)
    let acc = ref 0 in
    for g = 0 to n_groups - 1 do
      poll g;
      acc := !acc + Ints.get nd.start g;
      Ints.set nd.start g !acc
    done;
    Ints.push nd.start n_surv;
    for p = 0 to n_surv - 1 do
      poll p;
      Ints.push nd.members 0
    done;
    for p = n_surv - 1 downto 0 do
      poll p;
      let g = Ints.get group_of p in
      if p <> Ints.get head g then begin
        let e = Ints.get nd.start g - 1 in
        Ints.set nd.start g e;
        Ints.set nd.members e p
      end
    done;
    for g = 0 to n_groups - 1 do
      poll g;
      let lo = Ints.get nd.start g - 1 in
      Ints.set nd.start g lo;
      Ints.set nd.members lo (Ints.get head g);
      let size = Ints.get nd.start (g + 1) - lo in
      Ints.push nd.ready (if size <= 2 then size else 0)
    done;
    nodes.(i) <- nd;
    tables.(i) <- tbl;
    drained := !drained + n;
    survivors := !survivors + n_surv;
    groups := !groups + n_groups
  in
  let build () =
    Rkutil.Heap.clear heap;
    survivors := 0;
    drained := 0;
    groups := 0;
    sorted := 0;
    let tables : unit Join_key.Tbl.t array =
      Array.init m (fun _ -> Join_key.Tbl.create 1)
    in
    for i = m - 1 downto 0 do
      build_node tables i
    done
  in
  (* Group g's tail is ordered on demand. Slots [lo, lo + ready g) are
     final; the rest form a max-heap on [best] laid out backwards from the
     group's last slot, so popping its root into slot lo + ready extends
     the final prefix by one. [ready g = 0] means the tail is not yet a
     heap. *)
  let order_until nd g j =
    let lo = Ints.get nd.start g and hi = Ints.get nd.start (g + 1) in
    if Ints.get nd.ready g = 0 then begin
      let len = hi - lo - 1 in
      for k = (len / 2) - 1 downto 0 do
        poll k;
        sift nd hi k len
      done;
      Ints.set nd.ready g 1;
      incr sorted
    end;
    while Ints.get nd.ready g <= j do
      let len = hi - lo - Ints.get nd.ready g in
      swap nd hi 0 (len - 1);
      sift nd hi 0 (len - 1);
      Ints.set nd.ready g (Ints.get nd.ready g + 1)
    done
  in
  let group_in pos u =
    if u = 0 then 0 else Ints.get nodes.(u).link pos.(parent u)
  in
  (* Resolve coordinates [from..m-1] greedily to the head of their group. *)
  let resolve pos slot from =
    for u = from to m - 1 do
      pos.(u) <- member nodes.(u) (group_in pos u) 0;
      slot.(u) <- 0
    done
  in
  let push pos slot branch =
    let total = ref 0.0 in
    for u = 0 to m - 1 do
      total := !total +. Floats.get nodes.(u).own pos.(u)
    done;
    Rkutil.Heap.push heap { total = !total; pos; slot; branch }
  in
  let note_buffer () =
    Exec_stats.note_buffer stats (!survivors + Rkutil.Heap.length heap)
  in
  let seed () =
    if Col.length nodes.(0).tup > 0 then begin
      let pos = Array.make m 0 and slot = Array.make m 0 in
      resolve pos slot 0;
      push pos slot 0
    end;
    note_buffer ()
  in
  let successors c =
    for t = c.branch to m - 1 do
      tick ();
      let nd = nodes.(t) in
      let g = group_in c.pos t in
      let j = c.slot.(t) + 1 in
      if j < group_size nd g then begin
        if Ints.get nd.ready g <= j then order_until nd g j;
        let pos = Array.copy c.pos and slot = Array.copy c.slot in
        slot.(t) <- j;
        pos.(t) <- member nd g j;
        resolve pos slot (t + 1);
        push pos slot t
      end
    done;
    note_buffer ()
  in
  (* The answer's parts concatenated in input order, one blit each. *)
  let answer c =
    let len = ref 0 in
    for u = 0 to m - 1 do
      len := !len + Array.length (Tuples.get nodes.(u).tup c.pos.(u))
    done;
    let out = Array.make !len Value.Null in
    let off = ref 0 in
    for u = 0 to m - 1 do
      let part = Tuples.get nodes.(u).tup c.pos.(u) in
      Array.blit part 0 out !off (Array.length part);
      off := !off + Array.length part
    done;
    out
  in
  let stream =
    {
      Operator.s_schema = schema;
      s_open =
        (fun () ->
          Exec_stats.reset stats;
          started := false;
          build ();
          seed ();
          started := true);
      s_next =
        (fun () ->
          tick ();
          if not !started then None
          else
            match Rkutil.Heap.pop heap with
            | None -> None
            | Some c ->
                successors c;
                Exec_stats.bump_emitted stats;
                Some (answer c, c.total));
      s_close =
        (fun () ->
          started := false;
          Rkutil.Heap.clear heap;
          Array.iteri (fun i _ -> nodes.(i) <- empty_node ()) nodes);
    }
  in
  let counts () =
    {
      drained = !drained;
      survivors = !survivors;
      groups = !groups;
      groups_sorted = !sorted;
    }
  in
  (stream, counts)

let enumerate ?stats ?tick ~schema ~inputs ~keys () =
  fst (enumerate_counted ?stats ?tick ~schema ~inputs ~keys ())
