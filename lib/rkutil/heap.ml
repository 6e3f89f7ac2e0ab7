(* Slots beyond [size] are always [None]: [pop] nulls the slot it vacates and
   [grow] seeds fresh capacity with [None], so the heap never retains a
   reference to an element it no longer owns (long-running top-k streams pop
   far more elements than they hold). *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let get h i =
  match h.data.(i) with
  | Some x -> x
  | None -> invalid_arg "Heap: vacated slot in live prefix"

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap None in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp (get h i) (get h parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.cmp (get h l) (get h !smallest) < 0 then smallest := l;
  if r < h.size && h.cmp (get h r) (get h !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h;
  h.data.(h.size) <- Some x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some (get h 0)

let top_exn h =
  if h.size = 0 then invalid_arg "Heap.top_exn: empty heap" else get h 0

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = get h 0 in
  h.size <- h.size - 1;
  if h.size > 0 then h.data.(0) <- h.data.(h.size);
  h.data.(h.size) <- None;
  if h.size > 0 then sift_down h 0;
  top

let pop h = if h.size = 0 then None else Some (pop_exn h)

let clear h =
  Array.fill h.data 0 h.size None;
  h.size <- 0

let to_list h = List.init h.size (get h)

let of_list ~cmp xs =
  let h = create ~cmp in
  List.iter (push h) xs;
  h

let drain h =
  let rec loop acc =
    match pop h with
    | None -> List.rev acc
    | Some x -> loop (x :: acc)
  in
  loop []
