(** Recursive-descent parser for the Vadalog concrete syntax.

    Conventions (Prolog-like, adapted for dictionary predicates):
    - a clause is [head :- body.] or a ground fact [p(c1, ..., cn).];
    - in term/expression position, identifiers starting with an
      uppercase letter or ['_'] are variables (['_'] alone is a fresh
      anonymous variable); lowercase identifiers are symbol constants
      (strings);
    - predicates may have any identifier shape ([SM_Node(...)]) because
      atom position is unambiguous;
    - assignments are [X = expr]; comparisons use [==, !=, <, <=, >, >=];
    - aggregations: [V = sum(W, <Z>)] is monotonic (usable in recursion,
      per Sec. 4), [V = sum(W)] stratified group-by, [V = dsum(W, <Z>)]
      stratified with distinct-contributor dedup; same for
      count/min/max/prod; [pack] builds attribute packs (Ex. 6.2);
    - Skolem functors are [#name(args)]; annotations [@name("a", ...).];
    - comments run from ['%'] to end of line.

    One syntactic pitfall: a body literal beginning with a lowercase
    identifier applied to arguments is an {e atom}, so a condition may
    not start with a builtin call — bind it first
    ([F = to_float(X), F > 2.0], not [to_float(X) > 2.0]). *)

val agg_op_of_string : string -> (Rule.agg_op * Rule.agg_mode option) option
(** Aggregation spelling table, shared with the MetaLog parser; the
    mode is [None] when it depends on the presence of contributors. *)

val parse_program : string -> Rule.program
(** Raises [Kgm_error.Error] ([Parse]) with a line number on syntax
    errors. *)

val parse_rule : string -> Rule.rule
(** Expects exactly one rule. *)

val parse_atom : string -> Rule.atom
(** Exactly one atom, [pred(t1, ..., tn)], its terms read as in a rule
    body: the pattern syntax of a server query. *)

val parse_facts :
  string ->
  ((string * Kgm_common.Value.t array) list, [ `Rule | `No_fact ]) result
(** The ground facts written in [s], fact syntax whose final ['.'] may
    be left out, as update batches, [/explain] and [reason --explain]
    read them. [Error] when [s] holds a rule, or no fact. Raises
    [Kgm_error.Error] ([Parse]) on syntax errors. *)
