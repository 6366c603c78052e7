(** Resolution of [@input] annotations (paper, Sec. 4: "the atoms ...
    are populated from the input sources via automatically generated
    annotations of the form [@input(atom, query)]").

    Two source forms are resolved here; graph-store extraction (the
    Cypher-style queries MTV generates) is performed in-process by
    {!Kgm_metalog.Pg_bridge}, so those annotations are documentation of
    what a remote deployment would run.

    - ["csv:<path>"]: a headerless CSV file, one fact per row; each cell
      is parsed as int, float, boolean or string (in that order);
    - ["inline:<r1>;<r2>;..."]: the same format inline, rows separated
      by [';'] — convenient for tests and small fixtures.

    A malformed row — wrong arity w.r.t. the first row of the source, or
    an empty cell in a multi-column row — is a [Storage] error carrying
    the source and line number, or, under [~lenient:true], is skipped
    with a counted warning. Loading never crashes mid-run on bad data:
    it either reports the offending line or degrades gracefully.

    The reader scans a source's text where it lies: no list of lines or
    of cells is built, each cell is trimmed once by index, and a
    decimal int of at most 18 digits is read without copying it out.
    Every other cell is copied and parsed by {!Value.parse}, so the
    values, line numbers and errors are those of splitting the text
    into lines and cells. A UTF-8 byte-order mark opening a csv file is
    skipped; it is not part of the first cell. *)

open Kgm_common

type warning = {
  w_line : int;      (** 1-based row number within the source *)
  w_reason : string;
}

type source_report = {
  sr_pred : string;
  sr_source : string;  (** the annotation's source string *)
  sr_loaded : int;     (** new facts inserted *)
  sr_skipped : int;    (** malformed rows skipped (lenient mode only) *)
  sr_warnings : warning list;  (** per skipped row, in line order *)
}

(* [String.trim]'s blanks *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_blanks text i e = if i < e && is_blank text.[i] then skip_blanks text (i + 1) e else i
let rec trim_end text a e = if e > a && is_blank text.[e - 1] then trim_end text a (e - 1) else e
let rec cell_end text i e = if i < e && text.[i] <> ',' then cell_end text (i + 1) e else i

(* the digits of [text.[i..e)] as an int, or -1 if one is not a digit *)
let rec decimal text i e n =
  if i = e then n
  else
    match text.[i] with
    | '0' .. '9' as c -> decimal text (i + 1) e ((n * 10) + Char.code c - Char.code '0')
    | _ -> -1

(* The trimmed, non-empty cell [text.[a..b)]. At most 18 digits cannot
   overflow, so such a decimal is read where it lies; any other cell is
   [Value.parse TAny] of its text, which never fails. *)
let parse_cell text a b =
  let d = if text.[a] = '-' then a + 1 else a in
  let n = if d < b && b - d <= 18 then decimal text d b 0 else -1 in
  if n >= 0 then Value.Int (if d > a then -n else n)
  else Option.get (Value.parse Value.TAny (String.sub text a (b - a)))

(* The rows of [text] are the pieces between [sep]s, numbered from 1,
   and a row's cells the pieces between commas, each trimmed as
   [String.trim] trims. A row whose one cell is blank is skipped. A
   blank cell in a multi-column row is a malformed (truncated or
   shifted) record, not an empty string; single-column sources keep
   accepting blank-ish rows as empty strings for backward
   compatibility. *)
let load_rows ?(lenient = false) ~source db pred ~sep text =
  let loaded = ref 0 and skipped = ref 0 in
  let warnings = ref [] in
  let expected_arity = ref 0 (* 0 until the first loaded row *) in
  let malformed line reason =
    if lenient then begin
      incr skipped;
      warnings := { w_line = line; w_reason = reason } :: !warnings
    end
    else
      Kgm_error.storage_error_ctx
        [ ("source", source); ("line", string_of_int line); ("predicate", pred) ]
        "malformed row: %s" reason
  in
  (* [split i re k] reads the cells of [text.[i..re)] as cells [k], [k + 1],
     ...: the trimmed [start, end) of cell [k] goes to [bounds] at [2k],
     [2k + 1], and each blank one counts in [blanks]. It returns the
     row's arity. *)
  let bounds = ref (Array.make 32 0) and blanks = ref 0 in
  let rec split i re k =
    let e = cell_end text i re in
    let a = skip_blanks text i e in
    let b = trim_end text a e in
    if a = b then incr blanks;
    if (2 * k) + 1 >= Array.length !bounds then begin
      let grown = Array.make (4 * (k + 1)) 0 in
      Array.blit !bounds 0 grown 0 (2 * k);
      bounds := grown
    end;
    !bounds.(2 * k) <- a;
    !bounds.((2 * k) + 1) <- b;
    if e < re then split (e + 1) re (k + 1) else k + 1
  in
  let len = String.length text in
  let rec row line rs =
    let re = match String.index_from text rs sep with i -> i | exception Not_found -> len in
    blanks := 0;
    let arity = split rs re 0 in
    if arity = 1 && !blanks = 1 then ()
    else if !blanks > 0 then malformed line "empty cell (unparsable value)"
    else if !expected_arity > 0 && arity <> !expected_arity then
      malformed line
        (Printf.sprintf "arity %d, expected %d (from first row)" arity !expected_arity)
    else begin
      expected_arity := arity;
      let b = !bounds in
      let fact = Array.init arity (fun k -> parse_cell text b.(2 * k) b.((2 * k) + 1)) in
      if Database.add db pred fact then incr loaded
    end;
    if re < len then row (line + 1) (re + 1)
  in
  row 1 0;
  (!loaded, !skipped, List.rev !warnings)

let read_file path =
  Kgm_resilience.Faults.inject "source_read";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

(* a UTF-8 byte-order mark opening a file is not part of its first cell *)
let skip_bom doc =
  match strip_prefix ~prefix:"\xEF\xBB\xBF" doc with Some rest -> rest | None -> doc

(** Load every resolvable [@input] source into the database, one report
    per resolved annotation. Unresolvable sources (e.g. the Cypher
    extraction queries) are skipped. Raises [Kgm_error.Error]
    ([Storage]) when a csv file is unreadable, or — unless [lenient] —
    on a malformed row (wrong arity, unparsable value), with the source
    and line in the error context. Under [lenient], malformed rows are
    skipped and counted in the report's warnings. *)
let load_inputs_report ?lenient (program : Rule.program) db =
  List.filter_map
    (fun (a : Rule.annotation) ->
      match a.Rule.a_name, a.Rule.a_args with
      | "input", [ pred; source ] -> (
          let report sep text =
            let loaded, skipped, warnings =
              load_rows ?lenient ~source db pred ~sep text
            in
            Some
              { sr_pred = pred; sr_source = source; sr_loaded = loaded;
                sr_skipped = skipped; sr_warnings = warnings }
          in
          match strip_prefix ~prefix:"csv:" source with
          | Some path ->
              let doc =
                try read_file path
                with Sys_error m -> Kgm_error.storage_error "@input %s: %s" pred m
              in
              report '\n' (skip_bom doc)
          | None -> (
              match strip_prefix ~prefix:"inline:" source with
              | Some rows -> report ';' rows
              | None -> None))
      | _ -> None)
    program.Rule.annotations

(** Strict [(predicate, facts loaded)] view of {!load_inputs_report} —
    the historical API. *)
let load_inputs (program : Rule.program) db =
  List.map
    (fun r -> (r.sr_pred, r.sr_loaded))
    (load_inputs_report program db)
