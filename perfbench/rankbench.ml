(* One benchmark run: a workload for a window behind the socket server
   (--trace 0), or its traced in-process replay (--trace 1). The last line
   of standard output is the run's result as one JSON object.

     rankbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--smoke] [--out DIR]

   [--out] appends a fuller row to DIR/results.jsonl and, with --trace 1,
   writes the spans to DIR/trace-W.jsonl. perfbench/run.py builds this
   executable and runs the suite over it. *)

let usage =
  "rankbench.exe --workload dashboard|adhoc|leaderboard|shard --seed N \
   --seconds S --trace 0|1 [--smoke] [--out DIR]"

type args = {
  kind : Mix.kind;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  out : string option;
}

let parse argv =
  let rec go acc = function
    | [] -> acc
    | "--smoke" :: rest -> go (("smoke", "1") :: acc) rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> failwith ("missing --" ^ k) in
  let int k =
    match int_of_string_opt (get k) with Some v -> v | None -> failwith ("--" ^ k ^ " takes an integer")
  in
  let kind =
    match Mix.of_name (get "workload") with
    | Some k -> k
    | None -> failwith ("unknown workload " ^ get "workload")
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> failwith "--trace takes 0 or 1"
  in
  let seconds = int "seconds" in
  if seconds < 1 then failwith "--seconds must be at least 1";
  { kind; seed = int "seed"; seconds; trace; smoke = List.mem_assoc "smoke" kv; out = List.assoc_opt "out" kv }

(* Scratch space for sockets, relative to the working directory. *)
let scratch_root = ".perfbench-run"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fields_json xs = Num.json_obj (List.map (fun (k, v) -> (k, Num.json_float v)) xs)

let print_metric (m : Num.metric) =
  Printf.printf "  %-36s %16.6f %s\n" m.Num.name m.Num.value m.Num.unit_

let main a =
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      remove_tree dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
  @@ fun () ->
  let cores = Domain.recommended_domain_count () in
  let name = Mix.name a.kind in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d  cores %d%s\n" name a.seed
    a.seconds (Bool.to_int a.trace) cores (if a.smoke then "  smoke" else "");
  let correct, attempted, failed, metrics, extra, exact, problems =
    if a.trace then begin
      let trace_file =
        Option.map (fun d -> Filename.concat d (Printf.sprintf "trace-%s.jsonl" name)) a.out
      in
      let t =
        Replay.run a.kind ~smoke:a.smoke ~seed:a.seed ~seconds:a.seconds ~dir ~trace_file
      in
      let stmts = int_of_float (List.assoc "statements" t.Replay.extra) in
      (t.Replay.problems = [], stmts, 0, t.Replay.per_layer, t.Replay.extra, t.Replay.exact, t.Replay.problems)
    end
    else begin
      let r =
        Closed_loop.run a.kind ~smoke:a.smoke ~seed:a.seed ~seconds:(float a.seconds) ~dir
      in
      List.iteri
        (fun i e -> if i < 5 then Printf.eprintf "error reply: %s\n" e)
        r.Closed_loop.errors;
      ( r.Closed_loop.correct,
        r.Closed_loop.attempted,
        r.Closed_loop.failed,
        r.Closed_loop.e2e,
        r.Closed_loop.extra,
        [],
        r.Closed_loop.problems )
    end
  in
  List.iter print_metric metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-36s %16.6f\n" k v) extra;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  Printf.printf "  correct %b  attempted %d  failed %d\n" correct attempted failed;
  Option.iter
    (fun d ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat d "results.jsonl") in
      output_string oc
        (Num.json_obj
           [
             ("workload", Num.json_string name);
             ("seed", string_of_int a.seed);
             ("seconds", string_of_int a.seconds);
             ("trace", string_of_int (Bool.to_int a.trace));
             ("smoke", string_of_bool a.smoke);
             ("cores", string_of_int cores);
             ("correct", string_of_bool correct);
             ("attempted", string_of_int attempted);
             ("failed", string_of_int failed);
             ("metrics", fields_json (List.map (fun m -> (m.Num.name, m.Num.value)) metrics));
             ("units", Num.json_obj (List.map (fun m -> (m.Num.name, Num.json_string m.Num.unit_)) metrics));
             ("exact", fields_json exact);
             ("extra", fields_json extra);
           ]);
      output_char oc '\n';
      close_out oc)
    a.out;
  print_endline
    (Num.json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", Num.metrics_json metrics);
       ]);
  correct

let () =
  (* A peer that hangs up mid-write must surface as EPIPE, not kill the
     process: nothing in the server ignores SIGPIPE, and stopping an
     in-process shard cluster can write to a closed socket. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match parse Sys.argv with
  | exception Failure msg ->
      prerr_endline ("rankbench: " ^ msg ^ "\nusage: " ^ usage);
      exit 2
  | a -> (
      match main a with
      | true -> ()
      | false -> exit 1
      | exception e ->
          prerr_endline ("rankbench: " ^ Printexc.to_string e);
          exit 2)
