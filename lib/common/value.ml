type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Date of int * int * int
  | Id of Oid.t
  | Null of int
  | List of t list

let tag = function
  | Int _ -> 0 | Float _ -> 1 | String _ -> 2 | Bool _ -> 3
  | Date _ -> 4 | Id _ -> 5 | Null _ -> 6 | List _ -> 7

(* [rec] matters: without it the [List] branch (and any other inner
   occurrence of [compare]) resolves to the polymorphic
   [Stdlib.compare], which bypasses [Oid.compare] (the cosmetic Fresh
   hint would leak into ordering) and [Float.compare] on nested
   values. *)
let rec compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Date (y1, m1, d1), Date (y2, m2, d2) ->
      let c = Int.compare y1 y2 in
      if c <> 0 then c
      else
        let c = Int.compare m1 m2 in
        if c <> 0 then c else Int.compare d1 d2
  | Id x, Id y -> Oid.compare x y
  | Null x, Null y -> Int.compare x y
  | List x, List y -> List.compare compare x y
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let rec hash = function
  | Id o -> Hashtbl.hash (5, Oid.hash o)
  | List l -> Hashtbl.hash (7, List.map hash l)
  | v -> Hashtbl.hash v

(** Key module for [Hashtbl.Make]: hashing and equality agree with
    {!equal}/{!hash}, unlike the structural [( = )]/[Hashtbl.hash] pair
    (which never equates [Float nan] with itself and distinguishes
    [Id]s by their cosmetic hint). *)
module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

(* The one renderer: [to_string] and [pp] print through it, and the
   server renders answers with it straight into the response buffer.
   The text is what [Format] printed before — [%g] floats (the C
   formatter Printf's [%g] calls, without interpreting the format),
   OCaml-escaped quoted strings ([%S]), zero-padded dates ([%04d],
   [%02d], sign first) — so the printed forms stay byte-identical. *)
external format_float : string -> float -> string = "caml_format_float"

let add_padded buf width n =
  let s = string_of_int n in
  let len = String.length s in
  if len >= width then Buffer.add_string buf s
  else if n < 0 then begin
    Buffer.add_char buf '-';
    for _ = len to width - 1 do Buffer.add_char buf '0' done;
    Buffer.add_substring buf s 1 (len - 1)
  end
  else begin
    for _ = len to width - 1 do Buffer.add_char buf '0' done;
    Buffer.add_string buf s
  end

let rec to_buffer buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (format_float "%g" f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped s);
      Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Date (y, m, d) ->
      add_padded buf 4 y;
      Buffer.add_char buf '-';
      add_padded buf 2 m;
      Buffer.add_char buf '-';
      add_padded buf 2 d
  | Id o -> Oid.to_buffer buf o
  | Null n ->
      Buffer.add_string buf "_:n";
      Buffer.add_string buf (string_of_int n)
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ';';
          to_buffer buf v)
        l;
      Buffer.add_char buf ']'

let to_string v =
  let buf = Buffer.create 16 in
  to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let int i = Int i
let float f = Float f
let string s = String s
let bool b = Bool b
let date y m d = Date (y, m, d)
let id o = Id o

let as_int = function Int i -> Some i | _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let as_string = function String s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_id = function Id o -> Some o | _ -> None

let is_null = function Null _ -> true | _ -> false

type ty = TInt | TFloat | TString | TBool | TDate | TId | TAny

let ty_of_string = function
  | "int" | "integer" -> Some TInt
  | "float" | "double" | "real" -> Some TFloat
  | "string" | "text" -> Some TString
  | "bool" | "boolean" -> Some TBool
  | "date" -> Some TDate
  | "id" | "oid" -> Some TId
  | "any" -> Some TAny
  | _ -> None

let ty_to_string = function
  | TInt -> "int" | TFloat -> "float" | TString -> "string"
  | TBool -> "bool" | TDate -> "date" | TId -> "id" | TAny -> "any"

let pp_ty ppf ty = Format.pp_print_string ppf (ty_to_string ty)

let type_of = function
  | Int _ -> TInt | Float _ -> TFloat | String _ -> TString
  | Bool _ -> TBool | Date _ -> TDate | Id _ -> TId | Null _ -> TAny
  | List _ -> TAny

let conforms ty v =
  match ty, v with
  | TAny, _ | _, Null _ -> true
  | TInt, Int _ | TFloat, Float _ | TFloat, Int _
  | TString, String _ | TBool, Bool _ | TDate, Date _ | TId, Id _ -> true
  | (TInt | TFloat | TString | TBool | TDate | TId), _ -> false

let parse ty s =
  match ty with
  | TInt -> Option.map int (int_of_string_opt s)
  | TFloat -> Option.map float (float_of_string_opt s)
  | TString -> Some (String s)
  | TBool -> Option.map bool (bool_of_string_opt s)
  | TDate ->
      (match String.split_on_char '-' s with
       | [y; m; d] ->
           (match int_of_string_opt y, int_of_string_opt m, int_of_string_opt d with
            | Some y, Some m, Some d when m >= 1 && m <= 12 && d >= 1 && d <= 31 ->
                Some (Date (y, m, d))
            | _ -> None)
       | _ -> None)
  | TId -> None
  | TAny ->
      (match int_of_string_opt s with
       | Some i -> Some (Int i)
       | None ->
           (match float_of_string_opt s with
            | Some f -> Some (Float f)
            | None ->
                (match bool_of_string_opt s with
                 | Some b -> Some (Bool b)
                 | None -> Some (String s))))
