(* Clock, sample buffers, order statistics and the JSON the harness prints. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable array of floats. The buffer is allocated up front at its
   expected size, so that the memory a run uses does not grow with its
   throughput. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create capacity = { a = Array.make (max 1 capacity) 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* The samples, sorted ascending. *)
  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted sample, [p] in (0, 1]; nan on an
   empty sample. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median xs = percentile (sorted xs) 0.5

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float (Array.length xs)

(* Samples of a sorted sample strictly above its [p] percentile: a
   percentile is reported only with at least ten samples beyond it. *)
let beyond s p =
  let v = percentile s p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 s

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float kb /. 1024.0)
    | _ -> go ()
  in
  go ()

(* ---- JSON output ---------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision; a non-finite value has no JSON spelling and means a
   metric was computed from an empty sample, which is a harness bug. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

(* A metric as BENCHMARK.json names it. *)
type metric = { name : string; value : float; unit_ : string }

let metrics_json ms =
  json_obj
    (List.map
       (fun m ->
         ( m.name,
           json_obj
             [ ("value", json_float m.value); ("unit", json_string m.unit_) ] ))
       ms)
