(* Independent oracles for the reply and persist codecs: every writer in
   [Rkutil.Num_codec] against [Printf.sprintf], every reader against
   [float_of_string]/[int_of_string], and the persist format against a
   pinned digest of its bytes. *)

module N = Rkutil.Num_codec
open Relalg

let buf = Buffer.create 64

let written f x =
  Buffer.clear buf;
  f buf x;
  Buffer.contents buf

let mismatches = ref []

let note fmt =
  Printf.ksprintf
    (fun s -> if List.length !mismatches < 20 then mismatches := s :: !mismatches)
    fmt

let check_no_mismatch what =
  match !mismatches with
  | [] -> ()
  | l ->
      mismatches := [];
      Alcotest.failf "%s: %d+ mismatches, e.g.\n%s" what (List.length l)
        (String.concat "\n" (List.rev l))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Read [spelling] embedded in a longer string, so that the slice bounds
   matter, and compare with the stdlib reader on the bare spelling. *)
let read_slice reader s =
  let padded = "x\t" ^ s ^ "\ty" in
  match reader padded 2 (String.length s) with
  | v -> Ok v
  | exception Failure _ -> Error ()

let check_float_reader name reader s =
  match (read_slice reader s, float_of_string_opt s) with
  | Ok v, Some w -> if not (same_bits v w) then note "%s %S: %h, want %h" name s v w
  | Error (), None -> ()
  | Ok v, None -> note "%s %S: read %h, float_of_string fails" name s v
  | Error (), Some w -> note "%s %S: fails, float_of_string reads %h" name s w

(* [fixed = false] skips [%.6f]/[%.3f]: for the huge magnitudes of raw
   bit patterns each such spelling runs to hundreds of digits and costs
   microseconds, so those are sampled. *)
let check_float ?(fixed = true) x =
  let want_g = Printf.sprintf "%g" x and want_h = Printf.sprintf "%h" x in
  let got_g = written N.add_g x in
  if got_g <> want_g then note "%%g %h: %S, want %S" x got_g want_g;
  let got_h = written N.add_hex x in
  if got_h <> want_h then note "%%h %h: %S, want %S" x got_h want_h;
  check_float_reader "hex reader" N.hex_float_of_slice want_h;
  if fixed then begin
    let want_f6 = Printf.sprintf "%.6f" x and want_f3 = Printf.sprintf "%.3f" x in
    let got_f6 = written (fun b -> N.add_fixed b ~decimals:6) x in
    if got_f6 <> want_f6 then note "%%.6f %h: %S, want %S" x got_f6 want_f6;
    let got_f3 = written (fun b -> N.add_fixed b ~decimals:3) x in
    if got_f3 <> want_f3 then note "%%.3f %h: %S, want %S" x got_f3 want_f3
  end

let check_int i =
  let want = Printf.sprintf "%d" i in
  let got = written N.add_int i in
  if got <> want then note "%%d: %S, want %S" got want;
  match read_slice N.int_of_slice want with
  | Ok v -> if v <> i then note "int reader %S: %d" want v
  | Error () -> note "int reader %S fails" want

let edge_floats =
  let near_edges x = [ x; Float.pred x; Float.succ x; -.x ] in
  [
    0.0; -0.0; Float.nan; Float.neg Float.nan; Float.infinity;
    Float.neg_infinity; 5e-324; -5e-324; 0x1p-1022; Float.pred 0x1p-1022;
    0x0.8p-1022; Float.max_float; -.Float.max_float; Float.min_float;
    999999.5; 999999.4999999999; 0.5; 1.5; 2.5; 0.0078125; 1e-7; 5e-7;
    9.999995e-5; 99999.95; 123456.5; 0.1; 1. /. 3.; 2. /. 3.;
  ]
  @ List.concat_map near_edges
      [ 9e9; 1e-4; 1e6; 1e5; 1.0; 10.0; 1e-3; 0.1; 4503599627370496.0 ]

let test_float_writers_and_readers () =
  List.iter check_float edge_floats;
  check_no_mismatch "edge values";
  let g = Rkutil.Prng.create 20261020 in
  (* Raw 64-bit patterns: every exponent, NaN payloads, subnormals;
     fixed-point spellings of magnitudes from 1e17 on (where both sides
     are the C primitive) one pattern in 64. *)
  for i = 1 to 1_000_000 do
    let x = Int64.float_of_bits (Rkutil.Prng.bits64 g) in
    check_float ~fixed:(Float.abs x < 1e17 || i land 63 = 0) x
  done;
  check_no_mismatch "random 64-bit patterns";
  (* The fast paths' own ranges: magnitudes 2^-16 .. 2^34. *)
  for _ = 1 to 100_000 do
    let m = Int64.float_of_bits (Int64.logor 0x3FF0_0000_0000_0000L
                                   (Int64.logand (Rkutil.Prng.bits64 g) 0xF_FFFF_FFFF_FFFFL)) in
    let x = Float.ldexp m (Rkutil.Prng.int g 51 - 16) in
    check_float (if Rkutil.Prng.bool g then x else -.x)
  done;
  check_no_mismatch "fast-path range";
  (* Near-ties of the six- and three-decimal roundings. *)
  for i = 0 to 50_000 do
    let v = float_of_int (i * 17) /. 1e6 in
    List.iter check_float
      [ v; v +. 5e-7; v -. 5e-7; Float.succ (v +. 5e-7); Float.pred (v +. 5e-7);
        float_of_int (i * 17) /. 2e6; (float_of_int i /. 1e3) +. 5e-4;
        float_of_int (i * 4999) +. 0.5 ]
  done;
  check_no_mismatch "near-ties"

let test_int_writer_and_reader () =
  List.iter check_int
    [ 0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1; max_int - 1;
      999_999_999_999_999_999; -999_999_999_999_999_999;
      1_000_000_000_000_000_000 ];
  let g = Rkutil.Prng.create 7 in
  for _ = 1 to 300_000 do
    let i = Int64.to_int (Rkutil.Prng.bits64 g) in
    check_int (if Rkutil.Prng.bool g then i else i asr Rkutil.Prng.int g 63)
  done;
  check_no_mismatch "ints"

(* Spellings the fast readers do not produce go to the stdlib readers,
   failures included. *)
let test_other_spellings_fall_back () =
  List.iter
    (check_float_reader "hex reader" N.hex_float_of_slice)
    [
      "0X1P+0"; "0x1.8P+1"; "0x1.AP+0"; "0x1.00000000000001p+0"; "0x2p+0";
      "0x1p+1024"; "0x1p-1023"; "0x0.8p-1021"; "0x1.8p+0_"; "0x1.p+0";
      "0x.8p+0"; "0x1p"; "0x1p+"; "0x1p+000001"; "0x1.8p3"; "-0x0p+0";
      "nan"; "-nan"; "infinity"; "-infinity"; "inf"; "1e5"; "1.5"; " 1";
      "0x1_0p+0"; ""; "-"; "0x"; "0x1.0000000000000p-1022";
      "0x0.0000000000001p-1022"; "0x0p-1022"; "0x1.fffffffffffffp+1023";
    ];
  List.iter
    (fun s ->
      match (read_slice N.int_of_slice s, int_of_string_opt s) with
      | Ok v, Some w -> if v <> w then note "int reader %S: %d, want %d" s v w
      | Error (), None -> ()
      | _ -> note "int reader %S disagrees with int_of_string on failure" s)
    [
      "0x10"; "+5"; "1_000"; "-"; ""; "99999999999999999999"; "007"; "-0";
      "0b101"; "0u5"; "4611686018427387903"; "4611686018427387904";
      "-4611686018427387904"; " 5";
    ];
  check_no_mismatch "other spellings"

(* ------------------------------------------------------------------ *)
(* Cells and scores.                                                   *)

let cell_values =
  let open Value in
  [
    Null; Int 0; Int min_int; Int max_int; Float 0.0; Float (-0.0);
    Float Float.nan; Float Float.infinity; Float 5e-324; Float 0.25;
    Float 123456789.0; Str ""; Str "plain"; Str "tab\there \"q\" back\\slash\n";
    Str "\000\255\r\x7f"; Bool true; Bool false;
  ]

let test_cells_match_printf () =
  List.iter
    (fun v ->
      let text =
        match v with
        | Value.Null -> "NULL"
        | Int i -> Printf.sprintf "%d" i
        | Float f -> Printf.sprintf "%g" f
        | Str s -> Printf.sprintf "%S" s
        | Bool b -> Printf.sprintf "%b" b
      and hex =
        match v with
        | Value.Null -> "n:"
        | Int i -> Printf.sprintf "i:%d" i
        | Float f -> Printf.sprintf "f:%h" f
        | Str s -> "s:" ^ String.escaped s
        | Bool b -> Printf.sprintf "b:%b" b
      in
      Alcotest.(check string) "TEXT cell" text (Value.to_string v);
      Alcotest.(check string) "HEX cell" hex (Storage.Persist.value_encode v);
      let padded = "ab" ^ hex ^ "\t" in
      let back = Storage.Persist.value_of_slice padded 2 (String.length hex) in
      let same =
        match (v, back) with
        | Value.Float a, Value.Float b when Float.is_nan a -> Float.is_nan b
        | _ -> Value.identical v back
      in
      Alcotest.(check bool) ("HEX round trip " ^ hex) true same)
    cell_values;
  List.iter
    (fun s ->
      Alcotest.(check string) "TEXT score" (Printf.sprintf "score=%.6f" s)
        (Server.Protocol.render_score `Text s);
      Alcotest.(check string) "HEX score" (Printf.sprintf "score=%h" s)
        (Server.Protocol.render_score `Hex s);
      List.iter
        (fun codec ->
          let cell = Server.Protocol.render_score codec s in
          match Server.Protocol.parse_score codec cell with
          | Some r ->
              let want =
                float_of_string (String.sub cell 6 (String.length cell - 6))
              in
              Alcotest.(check bool) ("score read " ^ cell) true (same_bits r want)
          | None -> Alcotest.failf "score %S not recognized" cell)
        [ `Text; `Hex ])
    [ 0.0; -0.0; 0.5; 1. /. 3.; 1e300; -2.5e-7; Float.nan ];
  Alcotest.(check (option (float 0.0))) "not a score" None
    (Server.Protocol.parse_score `Hex "scores=1")

(* ------------------------------------------------------------------ *)
(* Persist golden: the bytes a fixed catalog saves to are pinned.      *)

let golden_rows =
  let open Value in
  [
    [| Int 1; Float Float.nan; Str "plain"; Bool true |];
    [| Int (-2); Float (-0.0); Str "tab\tand \"quote\" and \\"; Bool false |];
    [| Int max_int; Float 5e-324; Str "line\nbreak \000 \255"; Null |];
    [| Int min_int; Float (-.Float.nan); Null; Bool true |];
    [| Null; Float 0.1; Str ""; Bool false |];
    [| Int 0; Float Float.infinity; Str "caf\xc3\xa9"; Bool true |];
    [| Int 7; Float 1e300; Str "x"; Null |];
  ]

(* MD5 of catalog.meta, a separator and G.tbl as the Printf-based codec
   wrote them. *)
let golden_digest = "8522e7e782956cc1e7a47b60e1898ac4"

let test_persist_golden () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rankopt_golden" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let cat = Storage.Catalog.create () in
  let schema =
    Schema.of_columns
      [
        Schema.column "id" Value.Tint; Schema.column "f" Value.Tfloat;
        Schema.column "s" Value.Tstring; Schema.column "b" Value.Tbool;
      ]
  in
  ignore (Storage.Catalog.create_table cat "G" schema golden_rows);
  Storage.Persist.save cat ~dir;
  let bytes f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
  let saved = bytes "catalog.meta" ^ "\n--\n" ^ bytes "G.tbl" in
  Alcotest.(check string) "saved bytes digest" golden_digest
    (Digest.to_hex (Digest.string saved));
  let loaded = Storage.Persist.load ~dir () in
  let rows =
    match Storage.Catalog.find_table loaded "G" with
    | Some info -> Storage.Heap_file.to_list info.Storage.Catalog.tb_heap
    | None -> Alcotest.fail "table G not reloaded"
  in
  Alcotest.(check int) "row count" (List.length golden_rows) (List.length rows);
  List.iter2
    (fun want got ->
      Array.iteri
        (fun i w ->
          let same =
            match (w, got.(i)) with
            | Value.Float a, Value.Float b when Float.is_nan a ->
                Float.is_nan b && Float.sign_bit a = Float.sign_bit b
            | _ -> Value.identical w got.(i)
          in
          if not same then
            Alcotest.failf "cell %d: %s reloaded as %s" i (Value.to_string w)
              (Value.to_string got.(i)))
        want)
    golden_rows rows

let suites =
  [
    ( "codec oracles",
      [
        Alcotest.test_case "floats = Printf / float_of_string" `Quick
          test_float_writers_and_readers;
        Alcotest.test_case "ints = Printf / int_of_string" `Quick
          test_int_writer_and_reader;
        Alcotest.test_case "other spellings fall back" `Quick
          test_other_spellings_fall_back;
        Alcotest.test_case "cells and scores = Printf" `Quick
          test_cells_match_printf;
        Alcotest.test_case "persist golden bytes" `Quick test_persist_golden;
      ] );
  ]
