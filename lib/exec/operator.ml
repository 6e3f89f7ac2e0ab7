open Relalg

type t = {
  schema : Schema.t;
  open_ : unit -> unit;
  next : unit -> Tuple.t option;
  close : unit -> unit;
}

type scored = {
  s_schema : Schema.t;
  s_open : unit -> unit;
  s_next : unit -> (Tuple.t * float) option;
  s_close : unit -> unit;
}

let of_list schema tuples =
  let remaining = ref tuples in
  {
    schema;
    open_ = (fun () -> remaining := tuples);
    next =
      (fun () ->
        match !remaining with
        | [] -> None
        | tu :: rest ->
            remaining := rest;
            Some tu);
    close = (fun () -> remaining := []);
  }

let to_list op =
  op.open_ ();
  let acc = ref [] in
  let rec loop () =
    match op.next () with
    | Some tu ->
        acc := tu :: !acc;
        loop ()
    | None -> ()
  in
  loop ();
  op.close ();
  List.rev !acc

let take op n =
  op.open_ ();
  let acc = ref [] in
  let rec loop i =
    if i < n then
      match op.next () with
      | Some tu ->
          acc := tu :: !acc;
          loop (i + 1)
      | None -> ()
  in
  loop 0;
  op.close ();
  List.rev !acc

let map_schema schema f op =
  {
    schema;
    open_ = op.open_;
    next = (fun () -> Option.map f (op.next ()));
    close = op.close;
  }

let counted op =
  let n = ref 0 in
  let wrapped =
    {
      op with
      open_ =
        (fun () ->
          n := 0;
          op.open_ ());
      next =
        (fun () ->
          match op.next () with
          | Some tu ->
              incr n;
              Some tu
          | None -> None);
    }
  in
  (wrapped, fun () -> !n)

let with_score score op =
  {
    s_schema = op.schema;
    s_open = op.open_;
    s_next =
      (fun () ->
        match op.next () with Some tu -> Some (tu, score tu) | None -> None);
    s_close = op.close;
  }

let scored_to_plain s =
  {
    schema = s.s_schema;
    open_ = s.s_open;
    next =
      (fun () -> match s.s_next () with Some (tu, _) -> Some tu | None -> None);
    close = s.s_close;
  }

let scored_of_list schema entries =
  let rec check = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        if a < b then
          invalid_arg "Operator.scored_of_list: scores not non-increasing";
        check rest
    | _ -> ()
  in
  check entries;
  let remaining = ref entries in
  {
    s_schema = schema;
    s_open = (fun () -> remaining := entries);
    s_next =
      (fun () ->
        match !remaining with
        | [] -> None
        | e :: rest ->
            remaining := rest;
            Some e);
    s_close = (fun () -> remaining := []);
  }

let scored_to_list s =
  s.s_open ();
  let acc = ref [] in
  let rec loop () =
    match s.s_next () with
    | Some e ->
        acc := e :: !acc;
        loop ()
    | None -> ()
  in
  loop ();
  s.s_close ();
  List.rev !acc

let scored_take s n =
  s.s_open ();
  let acc = ref [] in
  let rec loop i =
    if i < n then
      match s.s_next () with
      | Some e ->
          acc := e :: !acc;
          loop (i + 1)
      | None -> ()
  in
  loop 0;
  s.s_close ();
  List.rev !acc

let scored_counted s =
  let n = ref 0 in
  let wrapped =
    {
      s with
      s_open =
        (fun () ->
          n := 0;
          s.s_open ());
      s_next =
        (fun () ->
          match s.s_next () with
          | Some e ->
              incr n;
              Some e
          | None -> None);
    }
  in
  (wrapped, fun () -> !n)
