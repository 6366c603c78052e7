(** Cost-based join ordering for rule bodies, recomputed at round
    boundaries from live predicate cardinalities.

    A plan is pure scheduling: the engine evaluates body literals in
    plan order but sorts the complete matches back into the
    written-order emission sequence (on fact insertion sequence
    numbers), so the planner can change probe counts and wall time,
    never derived facts, their insertion order, or null numbering. *)

type plan = {
  order : int list;  (** body literal indices in evaluation order *)
  reordered : bool;  (** [order] differs from the written order *)
  cost : int;
      (** summed integral candidate estimates of the non-delta positive
          literals along [order] — an estimated probe volume per delta
          fact, used to weight work-item scheduling; [>= 1] *)
}

val written : delta_lit:int -> Rule.rule -> plan
(** The unplanned order: the delta literal first (see {!plan_rule}),
    then every other literal in written order; unit cost. The identity
    on bodies whose delta literal is already first. *)

val plan_rule : count:(string -> int) -> ?delta_lit:int -> Rule.rule -> plan
(** [plan_rule ~count ~delta_lit r]: join order for the round evaluating
    body literal [delta_lit] of [r] over the round's delta, with [count]
    giving live predicate cardinalities. The delta literal always leads
    — its facts are the round's novelty, and a literal evaluated outside
    the delta loop would be re-scanned once per worker chunk, making
    probe counters depend on the chunking — then the remaining positive
    literals follow greedily most-selective-first. Without [delta_lit]
    the greedy order covers the whole body: the engine's [reorder_body]
    applies that plan once, as a rewrite of the written body. Estimates are
    integral (cardinality / 4 per bound position, floored at 1) and ties
    keep the written order, so plans are deterministic. Negations,
    conditions and assignments run as soon as their variables are bound,
    exactly as in written-order evaluation; aggregate literals are never
    planned (the engine excludes such rules). *)

val pp : delta_lit:int -> Rule.rule -> Format.formatter -> plan -> unit
(** Render a plan as ["Δtc@1 -> edge@2 -> node@0"] (literal labels with
    written indices, [Δ] marking the delta literal). *)
