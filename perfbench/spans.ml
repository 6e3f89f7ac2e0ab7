(* Spans of the traced replay, kept in growable parallel arrays and written
   out when the run ends.

   A span has a statement id, a name ("layer.step"), its parent span, and
   a start and end on the monotonic clock. Spans nest strictly (the replay
   is single-threaded), so a span's self time is its duration minus the
   durations of its direct children. *)

type t = {
  enabled : bool;
  mutable n : int;
  mutable stmt : int array;
  mutable names : string array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable current : int;  (* innermost open span, -1 at top level *)
  mutable stmt_id : int;
}

let create ~enabled =
  let cap = if enabled then 1 lsl 16 else 1 in
  {
    enabled;
    n = 0;
    stmt = Array.make cap 0;
    names = Array.make cap "";
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    current = -1;
    stmt_id = 0;
  }

let grow t =
  let cap = 2 * Array.length t.stmt in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.stmt <- ext t.stmt 0;
  t.names <- ext t.names "";
  t.parent <- ext t.parent 0;
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0

let span t name f =
  if not t.enabled then f ()
  else begin
    if t.n = Array.length t.stmt then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.stmt.(i) <- t.stmt_id;
    t.names.(i) <- name;
    t.parent.(i) <- t.current;
    t.current <- i;
    t.start.(i) <- Num.now_ns ();
    let close () =
      t.stop.(i) <- Num.now_ns ();
      t.current <- t.parent.(i)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A root span: one statement of the replayed stream. *)
let statement t name f =
  t.stmt_id <- t.stmt_id + 1;
  span t name f

let duration t i = t.stop.(i) - t.start.(i)

let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* One JSON object per span; times in ns from the first span's start. *)
let write t oc =
  let base = if t.n > 0 then t.start.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"stmt\":%d,\"span\":%d,\"name\":%s,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
      t.stmt.(i) i (Num.json_string t.names.(i)) t.parent.(i)
      (t.start.(i) - base) (t.stop.(i) - base)
  done
