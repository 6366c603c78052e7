type t =
  | Fresh of int * string          (* counter, optional hint (hint not part of identity) *)
  | Skolem of string * string list (* functor name, arguments *)

(* Identity of a Fresh oid is its counter only; the hint is cosmetic and
   must not influence comparisons, or renamed copies would stop being
   equal to themselves across pretty-printing round-trips. *)
let compare a b =
  match a, b with
  | Fresh (i, _), Fresh (j, _) -> Int.compare i j
  | Skolem (f, xs), Skolem (g, ys) ->
      let c = String.compare f g in
      if c <> 0 then c else List.compare String.compare xs ys
  | Fresh _, Skolem _ -> -1
  | Skolem _, Fresh _ -> 1

let equal a b = compare a b = 0

let hash = function
  | Fresh (i, _) -> Hashtbl.hash (0, i)
  | Skolem (f, xs) -> Hashtbl.hash (1, f, xs)

let to_buffer buf = function
  | Fresh (i, hint) ->
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int i);
      if hint <> "" then begin
        Buffer.add_char buf ':';
        Buffer.add_string buf hint
      end
  | Skolem (f, xs) ->
      Buffer.add_string buf "sk_";
      Buffer.add_string buf f;
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf x)
        xs;
      Buffer.add_char buf ')'

let to_string o =
  let buf = Buffer.create 16 in
  to_buffer buf o;
  Buffer.contents buf

let pp ppf o = Format.pp_print_string ppf (to_string o)

type gen = { mutable next : int }

let make_gen () = { next = 0 }

let fresh g =
  let i = g.next in
  g.next <- i + 1;
  Fresh (i, "")

let fresh_named g hint =
  let i = g.next in
  g.next <- i + 1;
  Fresh (i, hint)

let skolem f args = Skolem (f, args)

let is_skolem = function Skolem _ -> true | Fresh _ -> false
let counter_value g = g.next

let of_string s =
  let n = String.length s in
  if n >= 2 && s.[0] = '#' then begin
    let body = String.sub s 1 (n - 1) in
    match String.index_opt body ':' with
    | Some i ->
        (match int_of_string_opt (String.sub body 0 i) with
         | Some c ->
             Some (Fresh (c, String.sub body (i + 1) (String.length body - i - 1)))
         | None -> None)
    | None ->
        (match int_of_string_opt body with
         | Some c -> Some (Fresh (c, ""))
         | None -> None)
  end
  else if n >= 5 && String.sub s 0 3 = "sk_" && s.[n - 1] = ')' then
    match String.index_opt s '(' with
    | Some i ->
        let f = String.sub s 3 (i - 3) in
        let args_str = String.sub s (i + 1) (n - i - 2) in
        let args =
          if args_str = "" then [] else String.split_on_char ',' args_str
        in
        Some (Skolem (f, args))
    | None -> None
  else None
