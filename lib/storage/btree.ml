open Relalg

type entry = { key : Value.t; tuple : Tuple.t }

type node =
  | Leaf of leaf
  | Internal of internal

and leaf = {
  mutable entries : entry array;
  mutable next : leaf option;
  mutable prev : leaf option;
}

(* Invariant: [keys] holds the minimal key of each child except the first,
   so [Array.length keys = Array.length children - 1]. [counts] is aligned
   with [children] and holds each child's subtree entry count — the
   order-statistic augmentation that makes by-rank descents and
   rank-of-value probes O(log n). *)
and internal = {
  mutable keys : Value.t array;
  mutable children : node array;
  mutable counts : int array;
}

type t = {
  io : Io_stats.t;
  fanout : int;
  mutable root : node;
  mutable count : int;
}

let new_leaf () = { entries = [||]; next = None; prev = None }

let create ?(fanout = 64) io () =
  let fanout = max 4 fanout in
  { io; fanout; root = Leaf (new_leaf ()); count = 0 }

let touch t = Io_stats.add_index_node_read t.io

let length t = t.count

let height t =
  let rec go = function
    | Leaf _ -> 1
    | Internal n -> 1 + go n.children.(0)
  in
  go t.root

let subtree_count = function
  | Leaf lf -> Array.length lf.entries
  | Internal nd -> Array.fold_left ( + ) 0 nd.counts

(* Position of the child to follow for [key]: the last child whose minimal
   key is <= key. Used for inserts (duplicates go rightmost) and descending
   lookups. *)
let child_index keys key =
  let n = Array.length keys in
  let rec go i = if i < n && Value.compare keys.(i) key <= 0 then go (i + 1) else i in
  go 0

(* Leftmost child that can contain [key]: the last child whose minimal key is
   strictly below [key]. When duplicates of [key] span several children, this
   descends to the first of them. *)
let child_index_left keys key =
  let n = Array.length keys in
  let rec go i = if i < n && Value.compare keys.(i) key < 0 then go (i + 1) else i in
  go 0

(* Insertion point in a sorted entry array keeping duplicates in insertion
   order (rightmost position among equal keys). *)
let entry_insert_pos entries key =
  let n = Array.length entries in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare entries.(mid).key key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Result of inserting into a subtree: either the node absorbed the entry, or
   it split, producing a right sibling and the minimal key of that sibling. *)
type split = No_split | Split of Value.t * node

let rec insert_into t node e : split =
  touch t;
  match node with
  | Leaf lf ->
      let pos = entry_insert_pos lf.entries e.key in
      lf.entries <- array_insert lf.entries pos e;
      if Array.length lf.entries <= t.fanout then No_split
      else begin
        let n = Array.length lf.entries in
        let mid = n / 2 in
        let right = new_leaf () in
        right.entries <- Array.sub lf.entries mid (n - mid);
        lf.entries <- Array.sub lf.entries 0 mid;
        right.next <- lf.next;
        (match lf.next with Some nx -> nx.prev <- Some right | None -> ());
        right.prev <- Some lf;
        lf.next <- Some right;
        Split (right.entries.(0).key, Leaf right)
      end
  | Internal nd -> (
      let ci = child_index nd.keys e.key in
      match insert_into t nd.children.(ci) e with
      | No_split ->
          nd.counts.(ci) <- nd.counts.(ci) + 1;
          No_split
      | Split (sep, right) ->
          nd.keys <- array_insert nd.keys ci sep;
          nd.counts.(ci) <- subtree_count nd.children.(ci);
          nd.children <- array_insert nd.children (ci + 1) right;
          nd.counts <- array_insert nd.counts (ci + 1) (subtree_count right);
          if Array.length nd.children <= t.fanout then No_split
          else begin
            let nc = Array.length nd.children in
            let mid = nc / 2 in
            (* Children [mid..] move right; keys.(mid-1) is promoted. *)
            let promoted = nd.keys.(mid - 1) in
            let right_node =
              {
                keys = Array.sub nd.keys mid (Array.length nd.keys - mid);
                children = Array.sub nd.children mid (nc - mid);
                counts = Array.sub nd.counts mid (nc - mid);
              }
            in
            nd.keys <- Array.sub nd.keys 0 (mid - 1);
            nd.children <- Array.sub nd.children 0 mid;
            nd.counts <- Array.sub nd.counts 0 mid;
            Split (promoted, Internal right_node)
          end)

let insert t key tuple =
  Io_stats.add_index_probe t.io;
  (match insert_into t t.root { key; tuple } with
  | No_split -> ()
  | Split (sep, right) ->
      t.root <-
        Internal
          {
            keys = [| sep |];
            children = [| t.root; right |];
            counts = [| subtree_count t.root; subtree_count right |];
          });
  t.count <- t.count + 1

let bulk_load ?(fanout = 64) io entries =
  let fanout = max 4 fanout in
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Value.compare a b) entries
  in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n = 0 then create ~fanout io ()
  else begin
    (* Pack leaves at ~80% fill. *)
    let per_leaf = max 2 (fanout * 4 / 5) in
    let n_leaves = (n + per_leaf - 1) / per_leaf in
    let leaves =
      Array.init n_leaves (fun i ->
          let off = i * per_leaf in
          let len = min per_leaf (n - off) in
          let lf = new_leaf () in
          lf.entries <-
            Array.init len (fun j ->
                let key, tuple = arr.(off + j) in
                { key; tuple });
          lf)
    in
    for i = 0 to n_leaves - 2 do
      leaves.(i).next <- Some leaves.(i + 1);
      leaves.(i + 1).prev <- Some leaves.(i)
    done;
    (* Build internal levels bottom-up. *)
    let min_key = function
      | Leaf lf -> lf.entries.(0).key
      | Internal _ as nd ->
          let rec leftmost = function
            | Leaf lf -> lf.entries.(0).key
            | Internal n -> leftmost n.children.(0)
          in
          leftmost nd
    in
    let rec build level =
      if Array.length level = 1 then level.(0)
      else begin
        let per_node = max 2 (fanout * 4 / 5) in
        let n_nodes = (Array.length level + per_node - 1) / per_node in
        let next_level =
          Array.init n_nodes (fun i ->
              let off = i * per_node in
              let len = min per_node (Array.length level - off) in
              let children = Array.sub level off len in
              let keys = Array.init (len - 1) (fun j -> min_key children.(j + 1)) in
              let counts = Array.map subtree_count children in
              Internal { keys; children; counts })
        in
        build next_level
      end
    in
    let root = build (Array.map (fun lf -> Leaf lf) leaves) in
    { io; fanout; root; count = n }
  end

let rec find_leaf t node key =
  touch t;
  match node with
  | Leaf lf -> lf
  | Internal nd -> find_leaf t nd.children.(child_index nd.keys key) key

(* Descend to the leftmost leaf that can hold [key] (see child_index_left). *)
let rec find_leaf_left t node key =
  touch t;
  match node with
  | Leaf lf -> lf
  | Internal nd -> find_leaf_left t nd.children.(child_index_left nd.keys key) key

let rec leftmost_leaf t node =
  touch t;
  match node with
  | Leaf lf -> lf
  | Internal nd -> leftmost_leaf t nd.children.(0)

let rec rightmost_leaf t node =
  touch t;
  match node with
  | Leaf lf -> lf
  | Internal nd -> rightmost_leaf t nd.children.(Array.length nd.children - 1)

let lookup t key =
  Io_stats.add_index_probe t.io;
  let lf = find_leaf_left t t.root key in
  (* Duplicates of [key] may spill into following leaves. *)
  let rec collect lf acc =
    let hits = ref acc in
    let continue = ref false in
    Array.iter
      (fun e ->
        let c = Value.compare e.key key in
        if c = 0 then hits := e.tuple :: !hits)
      lf.entries;
    (match lf.entries with
    | [||] -> ()
    | es ->
        if Value.compare es.(Array.length es - 1).key key <= 0 then continue := true);
    if !continue then
      match lf.next with
      | Some nx ->
          touch t;
          collect nx !hits
      | None -> !hits
    else !hits
  in
  let n = collect lf [] in
  Io_stats.add_tuples_read t.io (List.length n);
  List.rev n

let scan_asc ?from t =
  Io_stats.add_index_probe t.io;
  let lf =
    match from with
    | None -> leftmost_leaf t t.root
    | Some key -> find_leaf_left t t.root key
  in
  let leaf = ref (Some lf) in
  let pos = ref 0 in
  (* Skip entries below [from] in the starting leaf. *)
  (match from with
  | None -> ()
  | Some key ->
      while
        !pos < Array.length lf.entries && Value.compare lf.entries.(!pos).key key < 0
      do
        incr pos
      done);
  let rec next () =
    match !leaf with
    | None -> None
    | Some lf ->
        if !pos < Array.length lf.entries then begin
          let e = lf.entries.(!pos) in
          incr pos;
          Io_stats.add_tuples_read t.io 1;
          Some e.tuple
        end
        else begin
          leaf := lf.next;
          pos := 0;
          (match lf.next with Some _ -> touch t | None -> ());
          next ()
        end
  in
  next

let scan_desc ?from t =
  Io_stats.add_index_probe t.io;
  let lf =
    match from with
    | None -> rightmost_leaf t t.root
    | Some key -> find_leaf t t.root key
  in
  let leaf = ref (Some lf) in
  let pos = ref (Array.length lf.entries - 1) in
  (match from with
  | None -> ()
  | Some key ->
      (* Duplicates of [from] may continue in following leaves: advance to
         the last leaf whose first key is <= from. *)
      let cur = ref lf in
      let moved = ref false in
      let rec forward () =
        match !cur.next with
        | Some nx
          when Array.length nx.entries > 0
               && Value.compare nx.entries.(0).key key <= 0 ->
            touch t;
            cur := nx;
            moved := true;
            forward ()
        | _ -> ()
      in
      forward ();
      if !moved then begin
        leaf := Some !cur;
        pos := Array.length !cur.entries - 1
      end;
      let lf = !cur in
      while !pos >= 0 && Value.compare lf.entries.(!pos).key key > 0 do
        decr pos
      done);
  let rec next () =
    match !leaf with
    | None -> None
    | Some lf ->
        if !pos >= 0 then begin
          let e = lf.entries.(!pos) in
          decr pos;
          Io_stats.add_tuples_read t.io 1;
          Some e.tuple
        end
        else begin
          leaf := lf.prev;
          (match lf.prev with
          | Some p ->
              touch t;
              pos := Array.length p.entries - 1
          | None -> ());
          next ()
        end
  in
  next

let range ?(lo_incl = true) ?(hi_incl = true) t ~lo ~hi =
  Io_stats.add_index_probe t.io;
  (* Descend with find_leaf_left even for an exclusive lower bound: an
     exclusive bound still needs the leftmost leaf that can hold [lo], since
     entries above [lo] may share that leaf with duplicates of [lo]. *)
  let lf =
    match lo with
    | None -> leftmost_leaf t t.root
    | Some key -> find_leaf_left t t.root key
  in
  let above_lo key =
    match lo with
    | None -> true
    | Some l ->
        let c = Value.compare key l in
        if lo_incl then c >= 0 else c > 0
  in
  let below_hi key =
    match hi with
    | None -> true
    | Some h ->
        let c = Value.compare key h in
        if hi_incl then c <= 0 else c < 0
  in
  let acc = ref [] in
  let stop = ref false in
  let rec walk lf =
    Array.iter
      (fun e ->
        if not !stop then
          (* Keys ascend: the first key past the upper bound ends the scan,
             whether or not the lower bound was ever satisfied. *)
          if not (below_hi e.key) then stop := true
          else if above_lo e.key then acc := e.tuple :: !acc)
      lf.entries;
    if not !stop then
      match lf.next with
      | Some nx ->
          touch t;
          walk nx
      | None -> ()
  in
  walk lf;
  Io_stats.add_tuples_read t.io (List.length !acc);
  List.rev !acc

(* -- Deletion ------------------------------------------------------------ *)

let node_is_empty = function
  | Leaf lf -> Array.length lf.entries = 0
  | Internal nd -> Array.length nd.children = 0

(* Drop child [ci] from an internal node: unlink a leaf from the sibling
   chain so scans never traverse it, and remove the corresponding separator
   (dropping child 0 makes the old keys.(0) the new first child's implicit
   minimum). *)
let remove_child nd ci =
  (match nd.children.(ci) with
  | Leaf lf ->
      (match lf.prev with Some p -> p.next <- lf.next | None -> ());
      (match lf.next with Some nx -> nx.prev <- lf.prev | None -> ())
  | Internal _ -> ());
  nd.children <- array_remove nd.children ci;
  nd.counts <- array_remove nd.counts ci;
  if Array.length nd.keys > 0 then
    nd.keys <- array_remove nd.keys (if ci = 0 then 0 else ci - 1)

(* Descend to the first entry holding exactly [key] and [tuple] and apply
   [edit] to its leaf and position; [false] when absent. Exactly, because
   [Value.compare] equates values that differ ([Int 3] and [Float 3.],
   [-0.] and [+0.]), and removing or rewriting such a look-alike instead
   would leave the index holding a tuple the heap no longer has. Path descent
   instead of a leaf-chain walk: duplicates of [key] can only live under
   the children between child_index_left and child_index, so trying those
   candidates in order finds the entry while keeping every visited node on
   the root-to-leaf paths. [delta] is added to the subtree counts along
   the path to the entry, and children it empties are unlinked. *)
let edit_entry t key tuple ~delta edit =
  Io_stats.add_index_probe t.io;
  let rec go node =
    touch t;
    match node with
    | Leaf lf ->
        let found = ref (-1) in
        Array.iteri
          (fun i e ->
            if
              !found < 0
              && Value.identical e.key key
              && Array.length e.tuple = Array.length tuple
              && Array.for_all2 Value.identical e.tuple tuple
            then found := i)
          lf.entries;
        if !found >= 0 then begin
          edit lf !found;
          true
        end
        else false
    | Internal nd ->
        let lo = child_index_left nd.keys key in
        let hi = child_index nd.keys key in
        let rec try_child ci =
          if ci > hi || ci >= Array.length nd.children then false
          else if go nd.children.(ci) then begin
            nd.counts.(ci) <- nd.counts.(ci) + delta;
            if node_is_empty nd.children.(ci) then remove_child nd ci;
            true
          end
          else try_child (ci + 1)
        in
        try_child lo
  in
  go t.root

let replace t key tuple fresh =
  edit_entry t key tuple ~delta:0 (fun lf i ->
      lf.entries.(i) <- { (lf.entries.(i)) with tuple = fresh })

let delete t key tuple =
  if
    edit_entry t key tuple ~delta:(-1) (fun lf i ->
        lf.entries <- array_remove lf.entries i)
  then begin
    t.count <- t.count - 1;
    (* A root that lost all but one child no longer earns its level: collapse
       so [height] reflects the live tree. A fully-empty tree keeps a single
       empty leaf as its root. *)
    let rec collapse () =
      match t.root with
      | Internal nd when Array.length nd.children = 1 ->
          t.root <- nd.children.(0);
          collapse ()
      | _ -> ()
    in
    collapse ();
    true
  end
  else false

(* -- Order-statistic primitives ------------------------------------------ *)

(* Count entries with key < [key] (strict) or <= [key]: one root-to-leaf
   descent summing the skipped siblings' subtree counts. *)
let count_below ~strict t key =
  Io_stats.add_index_probe t.io;
  let keep c = if strict then c < 0 else c <= 0 in
  let rec go node =
    touch t;
    match node with
    | Leaf lf ->
        let n = Array.length lf.entries in
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if keep (Value.compare lf.entries.(mid).key key) then lo := mid + 1
          else hi := mid
        done;
        !lo
    | Internal nd ->
        let ci =
          if strict then child_index_left nd.keys key
          else child_index nd.keys key
        in
        let skipped = ref 0 in
        for i = 0 to ci - 1 do
          skipped := !skipped + nd.counts.(i)
        done;
        !skipped + go nd.children.(ci)
  in
  go t.root

let count_lt t key = count_below ~strict:true t key
let count_le t key = count_below ~strict:false t key

(* Count-guided descent to the leaf holding ascending position [pos]
   (0-based); returns the leaf and the offset within it. *)
let leaf_at t pos =
  let rec go node pos =
    touch t;
    match node with
    | Leaf lf -> (lf, pos)
    | Internal nd ->
        let rec pick i pos =
          if i = Array.length nd.children - 1 || pos < nd.counts.(i) then
            (i, pos)
          else pick (i + 1) (pos - nd.counts.(i))
        in
        let i, pos = pick 0 pos in
        go nd.children.(i) pos
  in
  go t.root pos

let select_pos t ~pos ~len =
  Io_stats.add_index_probe t.io;
  let pos = max 0 pos in
  if len <= 0 || pos >= t.count then []
  else begin
    let len = min len (t.count - pos) in
    let lf, off = leaf_at t pos in
    let acc = ref [] in
    let rec collect lf off remaining =
      if remaining > 0 then
        if off < Array.length lf.entries then begin
          let e = lf.entries.(off) in
          acc := (e.key, e.tuple) :: !acc;
          collect lf (off + 1) (remaining - 1)
        end
        else
          match lf.next with
          | Some nx ->
              touch t;
              collect nx 0 remaining
          | None -> ()
    in
    collect lf off len;
    Io_stats.add_tuples_read t.io (List.length !acc);
    List.rev !acc
  end

let to_list_asc t =
  let lf = ref (Some (leftmost_leaf t t.root)) in
  let acc = ref [] in
  let rec loop () =
    match !lf with
    | None -> ()
    | Some l ->
        Array.iter (fun e -> acc := (e.key, e.tuple) :: !acc) l.entries;
        lf := l.next;
        loop ()
  in
  loop ();
  List.rev !acc

let n_leaves t =
  let rec go acc = function
    | None -> acc
    | Some (lf : leaf) -> go (acc + 1) lf.next
  in
  go 0 (Some (leftmost_leaf t t.root))

let check_invariants t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec min_key = function
    | Leaf lf ->
        if Array.length lf.entries = 0 then None else Some lf.entries.(0).key
    | Internal nd -> min_key nd.children.(0)
  in
  let rec real_size = function
    | Leaf lf -> Array.length lf.entries
    | Internal nd ->
        Array.fold_left (fun acc c -> acc + real_size c) 0 nd.children
  in
  let rec check ~is_root node : (unit, string) result =
    match node with
    | Leaf lf ->
        if (not is_root) && Array.length lf.entries = 0 then
          err "empty non-root leaf left on the tree"
        else begin
          let ok = ref (Ok ()) in
          for i = 0 to Array.length lf.entries - 2 do
            if Value.compare lf.entries.(i).key lf.entries.(i + 1).key > 0 then
              ok := err "leaf entries out of order at %d" i
          done;
          !ok
        end
    | Internal nd ->
        if Array.length nd.keys <> Array.length nd.children - 1 then
          err "internal node: %d keys, %d children" (Array.length nd.keys)
            (Array.length nd.children)
        else if Array.length nd.counts <> Array.length nd.children then
          err "internal node: %d counts, %d children" (Array.length nd.counts)
            (Array.length nd.children)
        else begin
          let result = ref (Ok ()) in
          Array.iteri
            (fun i c ->
              let real = real_size c in
              if nd.counts.(i) <> real then
                result :=
                  err "subtree count %d recorded for child %d, actual %d"
                    nd.counts.(i) i real)
            nd.children;
          Array.iteri
            (fun i sep ->
              match min_key nd.children.(i + 1) with
              | Some mk when Value.compare sep mk > 0 ->
                  result := err "separator %d above child min" i
              | _ -> ())
            nd.keys;
          Array.iter
            (fun c ->
              match !result with
              | Ok () -> result := check ~is_root:false c
              | Error _ -> ())
            nd.children;
          !result
        end
  in
  match check ~is_root:true t.root with
  | Error _ as e -> e
  | Ok () ->
      (* Leaf chain covers all entries in order. *)
      let lf = ref (Some (leftmost_leaf t t.root)) in
      let n = ref 0 in
      let last = ref None in
      let result = ref (Ok ()) in
      let rec loop () =
        match !lf with
        | None -> ()
        | Some l ->
            Array.iter
              (fun e ->
                incr n;
                (match !last with
                | Some k when Value.compare k e.key > 0 ->
                    result := err "leaf chain out of order"
                | _ -> ());
                last := Some e.key)
              l.entries;
            lf := l.next;
            loop ()
      in
      loop ();
      if !n <> t.count then err "count mismatch: chain %d, recorded %d" !n t.count
      else !result
