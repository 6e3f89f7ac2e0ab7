open Relalg

let joins k = not (Value.is_null k)

(* A numeric key hashes by the bits of its float value, so [Int 3] and
   [Float 3.] agree; 0. stands for -0. and one value for every NaN, since
   [Value.equal] equates them. Other keys start from [Value.hash]. Either
   goes through SplitMix64's finalizer in native ints: float bits of small
   integers differ only in their high bits, and the table uses both ends
   of the result. The numeric case stays inside this one function so the
   float is never boxed. *)
let hash v =
  let x =
    match v with
    | Value.Int _ | Value.Float _ ->
        let f = match v with Value.Int x -> float_of_int x | Value.Float f -> f | _ -> 0.0 in
        if f = 0.0 then 0
        else if Float.is_nan f then 1
        else
          let b = Int64.bits_of_float f in
          Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 63)
    | v -> Value.hash v
  in
  let x = (x lxor (x lsr 31)) * 0x3f58_476d_1ce4_e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d0_49bb_1331_11eb in
  (x lxor (x lsr 31)) land max_int

(* [Value.equal], with the Int/Int case a probe meets most inlined. *)
let[@inline] key_equal a b =
  match a, b with Value.Int x, Value.Int y -> Int.equal x y | _ -> Value.equal a b

module Tbl = struct
  (* Open addressing with linear probing over [slots], one int per slot:
     -1 when empty, else the high 31 bits of the key's hash (the low bits
     pick the slot) above its binding's position in the dense [keys] and
     [data] arrays. Bindings are never removed, so a probe stops at the
     first empty slot, and bindings of equal keys (which hash alike) lie
     along a probe sequence in the order they were made. *)
  type 'a t = {
    mutable slots : int array;
    mutable mask : int;  (* slot count - 1; the count is a power of two *)
    mutable keys : Value.t array;
    mutable data : 'a array;
    mutable size : int;
  }

  let pos_bits = 31

  let pos_mask = (1 lsl pos_bits) - 1

  (* [hash] is below 2^62, so the tag and the position share an int. *)
  let[@inline] tag h = h lsr pos_bits

  let slot_count n =
    let rec go c = if c >= 2 * n then c else go (2 * c) in
    go 8

  let create n =
    let c = slot_count (max 1 n) in
    { slots = Array.make c (-1); mask = c - 1; keys = [||]; data = [||]; size = 0 }

  let length t = t.size

  let clear t =
    if t.size > 0 then begin
      Array.fill t.slots 0 (Array.length t.slots) (-1);
      t.keys <- [||];
      t.data <- [||];
      t.size <- 0
    end

  (* The empty slot ending the probe sequence through slot [i]. *)
  let rec free_slot t i = if t.slots.(i) < 0 then i else free_slot t ((i + 1) land t.mask)

  let grow_slots t =
    let c = 2 * (t.mask + 1) in
    t.slots <- Array.make c (-1);
    t.mask <- c - 1;
    for j = 0 to t.size - 1 do
      let h = hash t.keys.(j) in
      t.slots.(free_slot t (h land t.mask)) <- (tag h lsl pos_bits) lor j
    done

  (* Append a binding at dense position [size], in slot [i]. *)
  let push t i h k v =
    let j = t.size in
    if j = Array.length t.keys then begin
      if j > pos_mask then invalid_arg "Join_key.Tbl: too many bindings";
      let cap = max 8 (2 * j) in
      let keys = Array.make cap Value.Null and data = Array.make cap v in
      Array.blit t.keys 0 keys 0 j;
      Array.blit t.data 0 data 0 j;
      t.keys <- keys;
      t.data <- data
    end;
    t.keys.(j) <- k;
    t.data.(j) <- v;
    t.slots.(i) <- (tag h lsl pos_bits) lor j;
    t.size <- j + 1;
    if 2 * t.size > t.mask + 1 then grow_slots t

  let add t k v =
    let h = hash k in
    push t (free_slot t (h land t.mask)) h k v

  (* One probe for [k], from slot [i] to the empty slot [e] that ends the
     sequence: the dense position of the binding [Hashtbl.Make (Value)]
     would find, the most recently made one whose key equals [k], else
     [-2 - e]. Only [add] over a bound key, or ints beyond 2^53, where
     [Value.equal] is not transitive, can make that binding differ from
     the first equal one; going on to the empty slot is cheap, since a
     slot whose tag differs costs one int comparison. *)
  let rec locate t k g i found =
    let v = t.slots.(i) in
    if v < 0 then if found >= 0 then found else -2 - i
    else
      let j = v land pos_mask in
      let found = if v lsr pos_bits = g && key_equal t.keys.(j) k then j else found in
      locate t k g ((i + 1) land t.mask) found

  let position t k =
    let h = hash k in
    let j = locate t k (tag h) (h land t.mask) (-1) in
    if j < 0 then -1 else j

  let find_or_add t k v =
    let h = hash k in
    let j = locate t k (tag h) (h land t.mask) (-1) in
    if j >= 0 then j
    else begin
      push t (-2 - j) h k v;
      t.size - 1
    end

  let find t k =
    let j = position t k in
    if j < 0 then raise Not_found else t.data.(j)

  let find_opt t k = match find t k with v -> Some v | exception Not_found -> None

  let cons t k x =
    let h = hash k in
    let j = locate t k (tag h) (h land t.mask) (-1) in
    if j >= 0 then begin
      (* [Hashtbl.replace] also stores the new key. Skipping the store when
         the keys are identical is unobservable and saves a write barrier
         on the common path, where they are. *)
      if not (Value.identical t.keys.(j) k) then t.keys.(j) <- k;
      t.data.(j) <- x :: t.data.(j)
    end
    else push t (-2 - j) h k [ x ]

  let map_inplace f t =
    for j = 0 to t.size - 1 do
      t.data.(j) <- f t.data.(j)
    done
end
