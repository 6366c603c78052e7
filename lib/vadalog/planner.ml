(** Cost-based join ordering for one rule body at a round boundary.

    Every plan evaluates the delta literal {e first}: its facts are the
    round's novelty, so driving the join from it prunes the
    re-derivation of old matches — and, because the engine splits the
    delta into chunks for the worker pool, any literal evaluated outside
    the delta loop would be re-scanned once per chunk, making probe
    counters depend on the chunk count (hence on [jobs]). Delta-first
    keeps per-chunk work proportional to the chunk size, so counters
    stay chunking-invariant.

    After the delta (if any — without one the plan orders the whole
    body), [plan_rule] greedily picks, at each step, the unused
    positive literal with the smallest estimated candidate count, and
    flushes negations, conditions and assignments as soon as
    their variables are bound (exactly the readiness rule of the
    engine's written-order evaluation, so a plan never evaluates a
    non-atom literal earlier than its inputs).

    The estimate is deliberately simple and fully integral, hence
    deterministic across platforms: an atom's base cardinality is
    divided by 4 per bound position (constant or already-bound
    variable), floored at 1. Ties prefer the lower written index, which
    also makes the planner a no-op on bodies that are already well
    ordered.

    The planner only {e orders} evaluation; the engine restores the
    written-order emission sequence by sorting complete matches on their
    fact insertion sequences, so plans can never change which facts are
    derived, their order, or labeled-null numbering — only how much work
    finding the matches costs. *)

type plan = {
  order : int list;  (** body literal indices in evaluation order *)
  reordered : bool;  (** [order] differs from the written order *)
  cost : int;        (** summed candidate estimates per delta fact *)
}

let written ~delta_lit (r : Rule.rule) =
  let n = List.length r.Rule.body in
  let order =
    delta_lit :: List.filter (fun i -> i <> delta_lit) (List.init n Fun.id)
  in
  (* rotating the delta to the front is readiness-safe: a non-atom
     literal's binders all precede it in the written order, and the
     rotation only moves one binder earlier *)
  { order; reordered = order <> List.init n Fun.id; cost = 1 }

(* Candidate estimate for evaluating [a] now: base cardinality divided
   by 4 per bound position, floored at 1. *)
let estimate ~card ~anchors =
  let e = ref (max 1 card) in
  for _ = 1 to anchors do
    e := max 1 (!e / 4)
  done;
  !e

let plan_rule ~count ?delta_lit (r : Rule.rule) =
  let items = Array.of_list r.Rule.body in
  let n = Array.length items in
  let used = Array.make n false in
  let bound = Hashtbl.create 16 in
  let is_bound v = Hashtbl.mem bound v in
  let order = ref [] and cost = ref 0 in
  let bound_pattern (a : Rule.atom) =
    List.filter_map Fun.id
      (List.mapi
         (fun i t ->
           match t with
           | Term.Const _ -> Some i
           | Term.Var x -> if is_bound x then Some i else None)
         a.Rule.args)
  in
  let add i =
    used.(i) <- true;
    List.iter (fun v -> Hashtbl.replace bound v ()) (Rule.literal_body_bound items.(i));
    order := i :: !order
  in
  let ready = function
    | Rule.Pos _ | Rule.Agg _ -> false
    | Rule.Neg a -> List.for_all is_bound (Rule.atom_vars a)
    | Rule.Cond e -> List.for_all is_bound (Expr.vars e)
    | Rule.Assign (x, e) ->
        List.for_all (fun v -> v = x || is_bound v) (Expr.vars e)
  in
  let flush_ready () =
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to n - 1 do
        if (not used.(i)) && ready items.(i) then begin
          add i;
          progress := true
        end
      done
    done
  in
  (* the delta leads unconditionally (see the header comment) *)
  Option.iter add delta_lit;
  flush_ready ();
  let continue = ref true in
  while !continue do
    let best = ref (-1) and best_key = ref (max_int, max_int) in
    for i = 0 to n - 1 do
      if not used.(i) then
        match items.(i) with
        | Rule.Pos a ->
            let anchors = List.length (bound_pattern a) in
            let est = estimate ~card:(count a.Rule.pred) ~anchors in
            (* minimize; ties keep the written order *)
            let key = (est, i) in
            if key < !best_key then begin
              best_key := key;
              best := i
            end
        | _ -> ()
    done;
    if !best >= 0 then begin
      let est, _ = !best_key in
      cost := !cost + est;
      add !best;
      flush_ready ()
    end
    else continue := false
  done;
  (* leftovers (unsafe rules are rejected elsewhere) keep their order *)
  for i = 0 to n - 1 do
    if not used.(i) then add i
  done;
  let order = List.rev !order in
  { order; reordered = order <> List.init n Fun.id; cost = max 1 !cost }

let pp ~delta_lit (r : Rule.rule) ppf plan =
  let items = Array.of_list r.Rule.body in
  let step j =
    let mark = if j = delta_lit then "Δ" else "" in
    match items.(j) with
    | Rule.Pos a -> Printf.sprintf "%s%s@%d" mark a.Rule.pred j
    | Rule.Neg a -> Printf.sprintf "not %s@%d" a.Rule.pred j
    | Rule.Cond _ -> Printf.sprintf "cond@%d" j
    | Rule.Assign (x, _) -> Printf.sprintf "%s=..@%d" x j
    | Rule.Agg _ -> Printf.sprintf "agg@%d" j
  in
  Format.fprintf ppf "%s%s"
    (String.concat " -> " (List.map step plan.order))
    (if plan.reordered then "" else "  [written order]")
