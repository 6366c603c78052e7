(* The @input CSV reader ([Io_sources.load_rows], which scans a source's
   text in place) against the list-based reader it replaced, kept here
   as the reference: on generated sources both must load the same facts
   in the same order, count the same loaded and skipped rows, warn about
   the same lines for the same reasons, and fail strict loading at the
   same line. Plus the byte-order mark a csv file may open with. *)

open Kgm_common
module V = Kgm_vadalog

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* The reference: every line split into a list, every cell of a row
   into a list, each cell trimmed and parsed as a value *)

module Reference = struct
  let parse_cell cell =
    match Value.parse Value.TAny (String.trim cell) with
    | Some v -> v
    | None -> Value.String cell

  let row_error cells =
    let arity = List.length cells in
    if arity > 1 && List.exists (fun c -> String.trim c = "") cells then
      Some "empty cell (unparsable value)"
    else None

  let load_rows ?(lenient = false) ~source db pred rows =
    let loaded = ref 0 and skipped = ref 0 in
    let warnings = ref [] in
    let expected_arity = ref None in
    let malformed line reason =
      if lenient then begin
        incr skipped;
        warnings := { V.Io_sources.w_line = line; w_reason = reason } :: !warnings
      end
      else
        Kgm_error.storage_error_ctx
          [ ("source", source); ("line", string_of_int line); ("predicate", pred) ]
          "malformed row: %s" reason
    in
    List.iteri
      (fun i row ->
        let line = i + 1 in
        if String.trim row <> "" then begin
          let cells = String.split_on_char ',' row in
          match row_error cells with
          | Some reason -> malformed line reason
          | None -> (
              let arity = List.length cells in
              match !expected_arity with
              | Some a when a <> arity ->
                  malformed line
                    (Printf.sprintf "arity %d, expected %d (from first row)" arity a)
              | _ ->
                  if !expected_arity = None then expected_arity := Some arity;
                  if V.Database.add db pred (Array.of_list (List.map parse_cell cells))
                  then incr loaded)
        end)
      rows;
    (!loaded, !skipped, List.rev !warnings)
end

(* ------------------------------------------------------------------ *)
(* Generated sources *)

(* the cells whose parse is easy to get wrong: every integer syntax
   [int_of_string] takes besides plain decimals, decimals of 18 and 19
   digits on both sides of max_int (4611686018427387903), floats,
   booleans and strings *)
let tricky =
  [ "0x1F"; "0o17"; "0b101"; "0u5"; "1_000"; "+5"; "-0"; "007"; "-"; "0b"; "-x";
    "999999999999999999"; "-999999999999999999"; "100000000000000000";
    "1000000000000000000"; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "-4611686018427387905"; "9999999999999999999";
    "1e5"; ".5"; "nan"; "inf"; "-inf"; "true"; "TRUE"; "false"; "0.6";
    "abc"; "hello world"; "a\011b"; "x;y"; "0"; "42"; "-7" ]

let gen_cell =
  QCheck.Gen.(
    frequency
      [ (6, oneofl tricky);
        (3, map string_of_int (int_range (-1000) 1000));
        (2, map2 (fun neg ds -> (if neg then "-" else "") ^ ds) bool
              (string_size ~gen:(char_range '0' '9') (int_range 1 20)));
        (1, return "") ])

(* padding around a cell: [String.trim]'s blanks, and '\011', which it
   keeps *)
let gen_pad =
  QCheck.Gen.(frequency [ (6, return ""); (1, oneofl [ " "; "\t"; "  "; "\011"; "\012"; "\r" ]) ])

type row = Cells of string list | Blank of string

let gen_row arity =
  QCheck.Gen.(
    frequency
      [ (8, map (fun cells -> Cells cells)
              (frequency [ (5, return arity); (1, int_range 1 4) ] >>= fun n ->
               list_repeat n (map3 (fun l c r -> l ^ c ^ r) gen_pad gen_cell gen_pad)));
        (1, return (Blank ""));
        (1, map (fun s -> Blank s) (oneofl [ " "; "\t \t"; "\r"; "  \012" ])) ])

type source = { sep : char; text : string }

let gen_source =
  QCheck.Gen.(
    pair (oneofl [ '\n'; ';' ]) (int_range 1 4) >>= fun (sep, arity) ->
        map3
          (fun rows crlf final ->
            let line = function Cells cs -> String.concat "," cs | Blank s -> s in
            let rows =
              List.map (fun r -> line r ^ if sep = '\n' && crlf then "\r" else "") rows
            in
            let text = String.concat (String.make 1 sep) rows in
            { sep; text = (if final then text ^ String.make 1 sep else text) })
          (list_size (int_range 0 12) (gen_row arity))
          bool bool)

let show_source s = Printf.sprintf "sep %C, text %S" s.sep s.text

(* ------------------------------------------------------------------ *)
(* The property *)

type outcome = {
  facts : Value.t array list;
  counts : (int * int * (int * string) list) option;  (** strict error: None *)
  error : (string option * string) option;  (** line, message *)
}

let run load =
  let db = V.Database.create () in
  let counts, error =
    match load db with
    | loaded, skipped, warnings ->
        ( Some
            ( loaded, skipped,
              List.map (fun w -> (w.V.Io_sources.w_line, w.V.Io_sources.w_reason)) warnings ),
          None )
    | exception Kgm_error.Error e ->
        (None, Some (List.assoc_opt "line" e.Kgm_error.context, e.Kgm_error.message))
  in
  { facts = V.Database.facts db "p"; counts; error }

let same_outcome a b =
  List.equal (fun f g -> Array.length f = Array.length g && Array.for_all2 Value.equal f g)
    a.facts b.facts
  && a.counts = b.counts && a.error = b.error

let show_outcome o =
  String.concat "; "
    (List.map
       (fun f -> String.concat "," (Array.to_list (Array.map Value.to_string f)))
       o.facts)
  ^ (match o.counts with
    | Some (l, s, ws) ->
        Printf.sprintf " | loaded %d, skipped %d, warnings [%s]" l s
          (String.concat "; " (List.map (fun (l, r) -> Printf.sprintf "%d: %s" l r) ws))
    | None -> "")
  ^
  match o.error with
  | Some (line, m) -> Printf.sprintf " | error at %s: %s" (Option.value line ~default:"?") m
  | None -> ""

let prop_same_as_reference s =
  Kgm_resilience.Faults.with_spec "" @@ fun () ->
  List.for_all
    (fun lenient ->
      let got =
        run (fun db -> V.Io_sources.load_rows ~lenient ~source:"gen" db "p" ~sep:s.sep s.text)
      and want =
        run (fun db ->
            Reference.load_rows ~lenient ~source:"gen" db "p"
              (String.split_on_char s.sep s.text))
      in
      same_outcome got want
      || QCheck.Test.fail_reportf "lenient=%b@.scan:      %s@.reference: %s" lenient
           (show_outcome got) (show_outcome want))
    [ true; false ]

let reference_test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
    (QCheck.Test.make ~name:"in-place scan = list-based reference" ~count:1500
       (QCheck.make ~print:show_source gen_source)
       prop_same_as_reference)

(* every tricky cell alone, padded, and in a two-column row: the
   generator draws them, this makes sure each one is met *)
let test_tricky_cells () =
  Kgm_resilience.Faults.with_spec "" @@ fun () ->
  List.iter
    (fun cell ->
      List.iter
        (fun (sep, text) ->
          let s = { sep; text } in
          check Alcotest.bool (show_source s) true (prop_same_as_reference s))
        [ ('\n', cell); ('\n', " \t" ^ cell ^ "\011\r\n"); (';', cell ^ ",1;2," ^ cell) ])
    tricky

(* ------------------------------------------------------------------ *)
(* A csv file opening with a UTF-8 byte-order mark loads its first cell
   without it *)

let test_bom () =
  let path = Filename.temp_file "kgm_bom" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "\xEF\xBB\xBF1,2\n3,4\n";
  close_out oc;
  let p =
    V.Parser.parse_program
      (Printf.sprintf "@input(\"p\", \"csv:%s\"). q(X) :- p(X, Y)." path)
  in
  let db = V.Database.create () in
  ignore (V.Io_sources.load_inputs p db);
  ignore (V.Engine.run p db);
  check
    Alcotest.(list string)
    "q from the first column" [ "1"; "3" ]
    (List.map (fun f -> Value.to_string f.(0)) (V.Database.facts db "q"))

let suite =
  [ reference_test;
    ("every tricky cell = reference", `Quick, test_tricky_cells);
    ("a csv byte-order mark is skipped", `Quick, test_bom) ]
