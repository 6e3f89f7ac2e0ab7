open Relalg

type t = {
  id : int;
  capacity : int;
  mutable slots : Tuple.t array;
  mutable dead : bool array;
  mutable count : int;
  mutable live : int;
}

let create ~id ~capacity =
  { id; capacity; slots = [||]; dead = [||]; count = 0; live = 0 }

let id p = p.id

let capacity p = p.capacity

let count p = p.count

let live_count p = p.live

let is_full p = p.count >= p.capacity

let add p tu =
  if is_full p then invalid_arg "Page.add: page full";
  if Array.length p.slots = p.count then begin
    let ncap = max 8 (min p.capacity (max 1 (p.count * 2))) in
    let ns = Array.make ncap tu in
    Array.blit p.slots 0 ns 0 p.count;
    p.slots <- ns;
    let nd = Array.make ncap false in
    Array.blit p.dead 0 nd 0 p.count;
    p.dead <- nd
  end;
  p.slots.(p.count) <- tu;
  p.dead.(p.count) <- false;
  p.count <- p.count + 1;
  p.live <- p.live + 1;
  p.count - 1

let is_live p slot = slot >= 0 && slot < p.count && not p.dead.(slot)

let get p slot =
  if slot < 0 || slot >= p.count then invalid_arg "Page.get: bad slot";
  if p.dead.(slot) then invalid_arg "Page.get: deleted slot";
  p.slots.(slot)

let replace p slot tu =
  if not (is_live p slot) then invalid_arg "Page.replace: bad or deleted slot";
  p.slots.(slot) <- tu

let delete p slot =
  if is_live p slot then begin
    p.dead.(slot) <- true;
    p.live <- p.live - 1;
    true
  end
  else false

let tuples p =
  let acc = ref [] in
  for i = p.count - 1 downto 0 do
    if not p.dead.(i) then acc := p.slots.(i) :: !acc
  done;
  !acc

let iter f p =
  for i = 0 to p.count - 1 do
    if not p.dead.(i) then f p.slots.(i)
  done
