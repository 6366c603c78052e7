(** Recursive-descent parser for the Vadalog concrete syntax.

    Conventions (Prolog-like, adapted for dictionary predicates):
    - a clause is [head :- body.] or a ground fact [p(c1, ..., cn).];
    - in term/expression position, identifiers starting with an
      uppercase letter or ['_'] are variables (['_'] alone is a fresh
      anonymous variable); lowercase identifiers are symbol constants
      (strings) unless applied like a builtin function;
    - predicates may have any identifier shape, e.g. [SM_Node(...)],
      because atom position is unambiguous;
    - assignments are [X = expr]; comparisons use [==, !=, <, <=, >, >=];
    - aggregations: [V = sum(W, <Z1, Z2>)] (monotonic with contributor
      key, usable in recursion, per Sec. 4), [V = sum(W)] (stratified
      group-by); same for count/min/max/prod/pack; [msum] is an explicit
      alias of contributor-style sum;
    - Skolem functors are [#name(args)];
    - annotations are [@name("a", "b").]. *)

open Kgm_common

type state = {
  mutable toks : Lexer.t list;
  mutable fresh : int;
}

let peek st = match st.toks with t :: _ -> t | [] -> assert false

let next st =
  match st.toks with
  | t :: rest ->
      st.toks <- rest;
      t
  | [] -> assert false

let error st fmt =
  let t = peek st in
  Format.kasprintf
    (fun m ->
      Kgm_error.parse_error "line %d: %s (found %s)" t.Lexer.line m
        (Lexer.token_name t.Lexer.tok))
    fmt

let expect st tok =
  let t = next st in
  if t.Lexer.tok <> tok then
    Kgm_error.parse_error "line %d: expected %s, found %s" t.Lexer.line
      (Lexer.token_name tok)
      (Lexer.token_name t.Lexer.tok)

let accept st tok =
  match st.toks with
  | t :: rest when t.Lexer.tok = tok ->
      st.toks <- rest;
      true
  | _ -> false

let is_var_name s = s <> "" && ((s.[0] >= 'A' && s.[0] <= 'Z') || s.[0] = '_')

let fresh_var st =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "_Anon%d" st.fresh

let ident st =
  match (next st).Lexer.tok with
  | Lexer.IDENT s -> s
  | tok -> Kgm_error.parse_error "expected identifier, found %s" (Lexer.token_name tok)

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)

let agg_op_of_string = function
  | "sum" -> Some (Rule.Sum, None)
  | "msum" -> Some (Rule.Sum, Some Rule.Monotonic)
  | "dsum" -> Some (Rule.Sum, Some Rule.Stratified)
  | "count" -> Some (Rule.Count, None)
  | "mcount" -> Some (Rule.Count, Some Rule.Monotonic)
  | "dcount" -> Some (Rule.Count, Some Rule.Stratified)
  | "min" -> Some (Rule.Min, None)
  | "dmin" -> Some (Rule.Min, Some Rule.Stratified)
  | "max" -> Some (Rule.Max, None)
  | "dmax" -> Some (Rule.Max, Some Rule.Stratified)
  | "prod" -> Some (Rule.Prod, None)
  | "mprod" -> Some (Rule.Prod, Some Rule.Monotonic)
  | "dprod" -> Some (Rule.Prod, Some Rule.Stratified)
  | "pack" -> Some (Rule.Pack, None)
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept st (Lexer.IDENT "or") then Expr.Or (lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  match (peek st).Lexer.tok with
  | Lexer.IDENT "and" ->
      ignore (next st);
      Expr.And (lhs, parse_and st)
  | _ -> lhs

and parse_not st =
  match (peek st).Lexer.tok with
  | Lexer.IDENT "not" ->
      ignore (next st);
      Expr.Not (parse_not st)
  | _ -> parse_cmp st

and parse_cmp st =
  let lhs = parse_additive st in
  let cmp c =
    ignore (next st);
    Expr.Cmp (c, lhs, parse_additive st)
  in
  match (peek st).Lexer.tok with
  | Lexer.EQEQ -> cmp Expr.Eq
  | Lexer.NEQ -> cmp Expr.Neq
  | Lexer.LT -> cmp Expr.Lt
  | Lexer.LE -> cmp Expr.Le
  | Lexer.GT -> cmp Expr.Gt
  | Lexer.GE -> cmp Expr.Ge
  | _ -> lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    match (peek st).Lexer.tok with
    | Lexer.PLUS ->
        ignore (next st);
        lhs := Expr.Binop (Expr.Add, !lhs, parse_multiplicative st)
    | Lexer.MINUS ->
        ignore (next st);
        lhs := Expr.Binop (Expr.Sub, !lhs, parse_multiplicative st)
    | Lexer.CONCAT ->
        ignore (next st);
        lhs := Expr.Binop (Expr.Concat, !lhs, parse_multiplicative st)
    | _ -> continue := false
  done;
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match (peek st).Lexer.tok with
    | Lexer.STAR ->
        ignore (next st);
        lhs := Expr.Binop (Expr.Mul, !lhs, parse_unary st)
    | Lexer.SLASH ->
        ignore (next st);
        lhs := Expr.Binop (Expr.Div, !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  if accept st Lexer.MINUS then
    Expr.Binop (Expr.Sub, Expr.Const (Value.Int 0), parse_primary st)
  else parse_primary st

and parse_args st =
  expect st Lexer.LPAREN;
  if accept st Lexer.RPAREN then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if accept st Lexer.COMMA then loop (e :: acc)
      else begin
        expect st Lexer.RPAREN;
        List.rev (e :: acc)
      end
    in
    loop []
  end

and parse_primary st =
  let t = next st in
  match t.Lexer.tok with
  | Lexer.INT i -> Expr.Const (Value.Int i)
  | Lexer.FLOAT f -> Expr.Const (Value.Float f)
  | Lexer.STRING s -> Expr.Const (Value.String s)
  | Lexer.LPAREN ->
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      e
  | Lexer.HASH ->
      let name = ident st in
      Expr.Skolem (name, parse_args st)
  | Lexer.IDENT "true" -> Expr.Const (Value.Bool true)
  | Lexer.IDENT "false" -> Expr.Const (Value.Bool false)
  | Lexer.IDENT s when (peek st).Lexer.tok = Lexer.LPAREN ->
      Expr.Fun (s, parse_args st)
  | Lexer.IDENT s when is_var_name s ->
      if s = "_" then Expr.Var (fresh_var st) else Expr.Var s
  | Lexer.IDENT s -> Expr.Const (Value.String s)
  | tok ->
      Kgm_error.parse_error "line %d: unexpected %s in expression" t.Lexer.line
        (Lexer.token_name tok)

(* ------------------------------------------------------------------ *)
(* Atoms, literals, clauses                                             *)

let parse_term st =
  let t = next st in
  match t.Lexer.tok with
  | Lexer.INT i -> Term.Const (Value.Int i)
  | Lexer.FLOAT f -> Term.Const (Value.Float f)
  | Lexer.STRING s -> Term.Const (Value.String s)
  | Lexer.MINUS ->
      (match (next st).Lexer.tok with
       | Lexer.INT i -> Term.Const (Value.Int (-i))
       | Lexer.FLOAT f -> Term.Const (Value.Float (-.f))
       | tok -> Kgm_error.parse_error "expected number after '-', found %s" (Lexer.token_name tok))
  | Lexer.IDENT "true" -> Term.Const (Value.Bool true)
  | Lexer.IDENT "false" -> Term.Const (Value.Bool false)
  | Lexer.IDENT s when is_var_name s ->
      if s = "_" then Term.Var (fresh_var st) else Term.Var s
  | Lexer.IDENT s -> Term.Const (Value.String s)
  | tok ->
      Kgm_error.parse_error "line %d: unexpected %s in term" t.Lexer.line
        (Lexer.token_name tok)

let parse_atom st name =
  expect st Lexer.LPAREN;
  if accept st Lexer.RPAREN then Rule.atom name []
  else begin
    let rec loop acc =
      let t = parse_term st in
      if accept st Lexer.COMMA then loop (t :: acc)
      else begin
        expect st Lexer.RPAREN;
        Rule.atom name (List.rev (t :: acc))
      end
    in
    loop []
  end

(* [V = op(expr, <Z1,...>)] or [V = expr]; caller has consumed V and '='. *)
let parse_assignment_rhs st result =
  match (peek st).Lexer.tok with
  | Lexer.IDENT name when agg_op_of_string name <> None
                          && (match st.toks with
                              | _ :: { Lexer.tok = Lexer.LPAREN; _ } :: _ -> true
                              | _ -> false) ->
      let op, forced_mode = Option.get (agg_op_of_string name) in
      ignore (next st);
      expect st Lexer.LPAREN;
      let weight = parse_expr st in
      let contributors =
        if accept st Lexer.COMMA then begin
          expect st Lexer.LT;
          let rec loop acc =
            let v = ident st in
            if accept st Lexer.COMMA then loop (v :: acc) else List.rev (v :: acc)
          in
          let vs = loop [] in
          expect st Lexer.GT;
          vs
        end
        else []
      in
      expect st Lexer.RPAREN;
      let mode =
        match forced_mode with
        | Some m -> m
        | None -> if contributors = [] then Rule.Stratified else Rule.Monotonic
      in
      Rule.Agg { result; op; weight; contributors; mode }
  | _ -> Rule.Assign (result, parse_expr st)

let parse_literal st =
  match (peek st).Lexer.tok with
  | Lexer.IDENT "not" ->
      ignore (next st);
      let name = ident st in
      Rule.Neg (parse_atom st name)
  | Lexer.IDENT s
    when (match st.toks with
          | _ :: { Lexer.tok = Lexer.LPAREN; _ } :: _ -> not (is_var_name s)
          | _ -> false) ->
      ignore (next st);
      Rule.Pos (parse_atom st s)
  | Lexer.IDENT s
    when is_var_name s
         && (match st.toks with
             | _ :: { Lexer.tok = Lexer.EQ; _ } :: _ -> true
             | _ -> false) ->
      ignore (next st);
      expect st Lexer.EQ;
      parse_assignment_rhs st s
  | Lexer.IDENT s
    when (match st.toks with
          | _ :: { Lexer.tok = Lexer.LPAREN; _ } :: _ -> true
          | _ -> false)
         && is_var_name s
         && String.length s > 1 ->
      (* uppercase identifier applied to arguments: dictionary predicates
         like SM_Node(...) are atoms, not expressions *)
      ignore (next st);
      Rule.Pos (parse_atom st s)
  | _ -> Rule.Cond (parse_expr st)

let parse_head_atom st =
  let name = ident st in
  parse_atom st name

let parse_clause st =
  let rec heads acc =
    let a = parse_head_atom st in
    if accept st Lexer.COMMA then heads (a :: acc) else List.rev (a :: acc)
  in
  let head = heads [] in
  let body =
    if accept st Lexer.IMPLIED_BY then begin
      let rec lits acc =
        let l = parse_literal st in
        if accept st Lexer.COMMA then lits (l :: acc) else List.rev (l :: acc)
      in
      lits []
    end
    else []
  in
  expect st Lexer.DOT;
  { Rule.head; body; name = "" }

let parse_annotation st =
  expect st Lexer.AT;
  let name = ident st in
  expect st Lexer.LPAREN;
  let rec loop acc =
    match (next st).Lexer.tok with
    | Lexer.STRING s | Lexer.IDENT s ->
        if accept st Lexer.COMMA then loop (s :: acc)
        else begin
          expect st Lexer.RPAREN;
          List.rev (s :: acc)
        end
    | tok ->
        Kgm_error.parse_error "annotation: expected string, found %s"
          (Lexer.token_name tok)
  in
  let args = if accept st Lexer.RPAREN then [] else loop [] in
  expect st Lexer.DOT;
  { Rule.a_name = name; a_args = args }

let parse_program src =
  let st = { toks = Lexer.tokenize src; fresh = 0 } in
  let rules = ref [] and facts = ref [] and annotations = ref [] in
  let rec loop () =
    match (peek st).Lexer.tok with
    | Lexer.EOF -> ()
    | Lexer.AT ->
        annotations := parse_annotation st :: !annotations;
        loop ()
    | Lexer.IDENT _ ->
        let clause = parse_clause st in
        (if Rule.is_fact clause then
           List.iter
             (fun (a : Rule.atom) ->
               let args =
                 List.map
                   (function Term.Const v -> v | Term.Var _ -> assert false)
                   a.Rule.args
               in
               facts := (a.Rule.pred, args) :: !facts)
             clause.Rule.head
         else rules := clause :: !rules);
        loop ()
    | _ -> error st "expected clause or annotation"
  in
  loop ();
  { Rule.rules = List.rev !rules;
    facts = List.rev !facts;
    annotations = List.rev !annotations }

let parse_rule src =
  match (parse_program src).Rule.rules with
  | [ r ] -> r
  | rs -> Kgm_error.parse_error "expected exactly one rule, got %d" (List.length rs)

let parse_atom src =
  let st = { toks = Lexer.tokenize src; fresh = 0 } in
  let a = parse_head_atom st in
  if (peek st).Lexer.tok <> Lexer.EOF then
    error st "expected the end of the atom";
  a

let parse_facts s =
  let s = String.trim s in
  let p =
    parse_program
      (if s <> "" && s.[String.length s - 1] = '.' then s else s ^ ".")
  in
  if p.Rule.rules <> [] then Error `Rule
  else if p.Rule.facts = [] then Error `No_fact
  else
    Ok (List.map (fun (pred, args) -> (pred, Array.of_list args)) p.Rule.facts)
