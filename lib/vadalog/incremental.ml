(** Incremental maintenance: insert/retract deltas over a completed
    chase, repaired in place instead of re-chased.

    Inserts are the easy half: a new extensional fact is exactly a
    seed for {!Engine.run_delta}, the seeded semi-naive pass that
    already powers the engine's per-stratum delta rounds — only
    consequences of the batch are evaluated, with the planner's
    delta-first plans and the pool's parallel rounds intact.

    Retractions use delete-and-rederive (DRed), recast over the
    support recorded during the chase. {!maintain} drives four steps;
    DRed is their skeleton, and wholesale strata and counting plug in
    at named points:

    {ol
    {- [overdelete]: walk the support's reverse edges
       ({!Support.children}) from the retracted facts: everything
       reachable has at least one derivation that (transitively)
       consumed a retracted fact. The nulls a derivation consuming a
       cone fact invented are {e at risk}, and every fact carrying one
       joins the cone too (a null is only meaningful while its creating
       derivation stands). {e Counting:} when a cone fact feeds a match
       of a monotonic aggregate ({!Engine.agg_matches}), the match's
       group is {e touched} and its head facts join the cone (the group
       total shrinks, so heads that only ever passed a threshold thanks
       to the dying match must be re-judged — the support graph alone
       cannot see this, because sub-threshold contributions never
       fired). {e Wholesale:} a marked stratum's derived facts, and the
       nulls they invented, are forced into the cone.}
    {- [alive]: inside the cone, compute the least fixpoint of: a fact
       is alive iff it is (still) extensional, or all nulls in its
       tuple are alive and it has sound derivation evidence — a
       recorded non-aggregate derivation with all parents alive, or
       ({e counting}) a group of its head that still passes: a touched
       group refolded from its matches with all parents alive, an
       untouched one as its accumulator stands. An at-risk null is
       alive iff all parents of its creating derivation are alive.}
    {- [delete]: cone minus alive is removed in one
       {!Database.remove_batch} call (survivors keep their relative
       order — the determinism invariant), and the support is pruned
       ({!Support.prune}, {!Support.sweep_suppressed}). {e Counting:}
       each touched group's accumulator is refolded from its surviving
       matches, or, when it now passes with a head missing, dropped and
       its survivors' parents seeded, so the pass refolds it and fires
       the head. {e Wholesale:} the marked rules' entries, accumulators
       and suppressed firings are void.}
    {- [reseed]: a suppressed restricted-chase firing whose witness
       image died is re-attempted: its parents are seeded into the same
       {!Engine.run_delta} pass as the inserts, so the rule re-fires
       through the normal machinery and may now invent. {e Wholesale:}
       a marked stratum is re-derived by round 0 of that pass.}}

    {b Stratum-aware non-monotonicity.} Stratified negation and
    [Stratified] aggregation are non-monotone, so support entries
    recorded under them are not sound deletion evidence — but that
    only poisons the strata actually containing them. Each phase is
    stratified once ({!Analysis.stratify}); when the update's affected
    closure reaches a rule with stratified negation or aggregation,
    that rule's {e stratum} is marked {e wholesale} ({!Engine.run_delta}'s
    [?wholesale]) and re-derived on top of the already-maintained lower
    strata — never from scratch. Strata below and beside the mark keep
    the DRed path; [Monotonic] aggregates (the paper's [msum]) keep it
    too, through counting evidence. A full re-chase survives only for
    updates the machinery genuinely cannot localize: a non-semi-naive
    engine, a monotonic aggregate outside {!Analysis.monotonic_profiles},
    an affected non-counting monotonic rule (order-sensitive
    accumulators such as [pack] running totals), or an affected [sum]
    that has met a negative weight. *)

open Kgm_common
module Journal = Kgm_telemetry.Journal
module J = Kgm_telemetry.Json

(** One profiled monotonic rule ({!Analysis.monotonic_profiles}). Its
    accumulators are the only aggregate state a session keeps: every
    engine pass folds into them ([agg_init]), and everything else about
    a group is read from the store ({!Engine.agg_matches}). *)
type agg_log = {
  lg_rid : int;  (** pipeline-global recording id of the rule *)
  lg_rule : Rule.rule;
  lg_agg : Engine.agg_rule;  (** compiled against the session's dictionary *)
  lg_profile : Analysis.agg_profile;
  lg_state : Engine.agg_state;
  mutable lg_neg : bool;
      (** a [sum] met a negative weight (folded by a pass, or listed
          by maintenance): counting evidence is then unsound and the
          fallback gate fires *)
}

(** Per-phase stratification, computed once at chase time. Recording
    ids are pipeline-global: phase [i]'s rule [j] records support,
    suppressed firings and aggregate state under
    [metas.(i).pm_rid_base + j]. *)
type phase_meta = {
  pm_rules : Rule.rule array;
  pm_rule_strata : int array;
  pm_rid_base : int;
  pm_n_strata : int;
}

type state = {
  phases : Rule.program list;
  options : Engine.options;
  metas : phase_meta array;
  agg_tbl : (int, agg_log) Hashtbl.t;  (** recording id -> log *)
  mutable db : Database.t;
  mutable support : Support.t;
  edb : Database.t;
      (** the extensional facts, sharing [db]'s dictionary; changed only
          when a batch commits ({!Database.apply_batch}) *)
  mutable torn : bool;
      (** a {!maintain} raised mid-repair: the store matches neither the
          pre- nor the post-batch EDB, so the next batch re-chases *)
  edb_copy_s : float;  (** what copying the loaded store into [edb] took *)
}

type update_stats = {
  u_inserted : int;
  u_retracted : int;
  u_cone : int;
  u_rederived : int;
  u_deleted : int;
  u_refired : int;
  u_derived : int;
  u_rounds : int;
  u_strata : int;
  u_agg_groups : int;
  u_fallback : bool;
  u_elapsed_s : float;
}

let rule_body_preds (r : Rule.rule) =
  List.filter_map
    (function Rule.Pos a | Rule.Neg a -> Some a.Rule.pred | _ -> None)
    r.Rule.body

let rule_head_preds (r : Rule.rule) =
  List.map (fun (a : Rule.atom) -> a.Rule.pred) r.Rule.head

let build_metas phases =
  let base = ref 0 in
  let metas =
    List.map
      (fun (ph : Rule.program) ->
        let analysis = Analysis.stratify ph in
        let rules = Array.of_list ph.Rule.rules in
        let m =
          { pm_rules = rules;
            pm_rule_strata = Analysis.rule_strata analysis ph;
            pm_rid_base = !base;
            pm_n_strata = max 1 (List.length analysis.Analysis.strata) }
        in
        base := !base + Array.length rules;
        m)
      phases
  in
  Array.of_list metas

(* fresh, empty logs: before a chase folds into them *)
let register_agg_logs st =
  Hashtbl.reset st.agg_tbl;
  List.iteri
    (fun i (ph : Rule.program) ->
      let m = st.metas.(i) in
      List.iter
        (fun (prof : Analysis.agg_profile) ->
          let r = m.pm_rules.(prof.Analysis.ap_rule) in
          let rid = m.pm_rid_base + prof.Analysis.ap_rule in
          Hashtbl.replace st.agg_tbl rid
            { lg_rid = rid; lg_rule = r; lg_agg = Engine.agg_rule st.edb r;
              lg_profile = prof; lg_state = Database.KeyTbl.create 16; lg_neg = false })
        (Analysis.monotonic_profiles ph))
    st.phases

let phase_rule_ids (m : phase_meta) =
  Array.init (Array.length m.pm_rules) (fun j -> m.pm_rid_base + j)

(* The logs' accumulators for one engine pass over a phase: the engine
   folds into them in place, which is what keeps them current for the
   next maintain (a wholesale rule's was reset to empty, which is
   exactly where its round 0 must start) *)
let agg_init_for st (m : phase_meta) =
  List.filter_map
    (fun rid ->
      Option.map
        (fun log -> (rid, log.lg_state))
        (Hashtbl.find_opt st.agg_tbl rid))
    (Array.to_list (phase_rule_ids m))

(* one engine pass's negative [sum] weights trip the next batch's gate *)
let note_negatives st (stats : Engine.stats) =
  List.iter
    (fun rid ->
      Option.iter (fun log -> log.lg_neg <- true) (Hashtbl.find_opt st.agg_tbl rid))
    stats.Engine.negative_sums

(* Chase [phases] (the state's pipeline, possibly facts-stripped) in
   order on [db], recording into [support] and folding into the logs. *)
let run_phases ?telemetry ?journal ?pool ~options st ~support db phases =
  List.mapi
    (fun i ph ->
      let m = st.metas.(i) in
      let stats =
        Engine.run ~options ~support ?telemetry ?journal ?pool
          ~rule_ids:(phase_rule_ids m) ~agg_init:(agg_init_for st m) ph db
      in
      note_negatives st stats;
      stats)
    phases
  |> function
  | s :: rest -> List.fold_left Engine.merge_stats s rest
  | [] -> invalid_arg "Incremental.chase_phases: empty pipeline"

let chase_phases ?(options = Engine.default_options) ?telemetry ?journal ~db
    phases =
  (* the EDB is everything loaded rather than derived: facts already in
     the database plus each phase's own fact list *)
  let t0 = Kgm_telemetry.Clock.now () in
  let edb =
    Kgm_telemetry.with_span
      (Option.value telemetry ~default:Kgm_telemetry.null)
      ~cat:"chase" "chase.edb_copy"
      (fun () -> Database.copy db)
  in
  let edb_copy_s = Kgm_telemetry.Clock.now () -. t0 in
  List.iter
    (fun (ph : Rule.program) ->
      ignore
        (Database.apply_batch edb ~retracts:[]
           ~inserts:
             (List.map (fun (p, args) -> (p, Array.of_list args)) ph.Rule.facts)))
    phases;
  let st =
    { phases; options; metas = build_metas phases; agg_tbl = Hashtbl.create 16;
      db; support = Support.create (); edb; torn = false; edb_copy_s }
  in
  register_agg_logs st;
  (st,
   run_phases ?telemetry ?journal ~options st ~support:st.support db phases)

let chase ?options ?telemetry ?journal ?(db = Database.create ()) program =
  chase_phases ?options ?telemetry ?journal ~db [ program ]

let db st = st.db
let edb_copy_s st = st.edb_copy_s
let phases st = st.phases
let options st = st.options
let support st = st.support

let iter_edb st f =
  List.iter
    (fun p ->
      ignore (Database.iter_matches st.edb p [] [] (fun _ fact -> f p fact)))
    (Database.predicates st.edb)

let edb_facts st =
  let acc = ref [] in
  iter_edb st (fun p f -> acc := (p, f) :: !acc);
  List.rev !acc

let swap_db st db = st.db <- db

(* ------------------------------------------------------------------ *)
(* Update planning: the affected closure of the updated predicates,
   wholesale-marking of strata the closure reaches through stratified
   negation/aggregation, and the (narrow) fallback gate. *)

let close_affected phases affected =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (ph : Rule.program) ->
        List.iter
          (fun (r : Rule.rule) ->
            let body_hit =
              List.exists
                (function
                  | Rule.Pos a | Rule.Neg a -> Hashtbl.mem affected a.Rule.pred
                  | _ -> false)
                r.Rule.body
            in
            if body_hit then
              List.iter
                (fun (a : Rule.atom) ->
                  if not (Hashtbl.mem affected a.Rule.pred) then begin
                    Hashtbl.replace affected a.Rule.pred ();
                    changed := true
                  end)
                r.Rule.head)
          ph.Rule.rules)
      phases
  done

type plan = {
  pl_affected : (string, unit) Hashtbl.t;
  pl_marked : bool array array;  (* phase -> stratum -> wholesale *)
  pl_wpreds : string list;  (* head preds of marked strata, sorted *)
  pl_wholesale_rids : (int, unit) Hashtbl.t;
  pl_n_marked : int;
  pl_counting : agg_log list;  (* hit logs outside the marked strata *)
  pl_fallback : bool;
}

let plan_update st updated =
  let affected = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace affected p ()) updated;
  let marked =
    Array.map (fun (m : phase_meta) -> Array.make m.pm_n_strata false) st.metas
  in
  let wpreds = Hashtbl.create 16 in
  let wholesale_rids = Hashtbl.create 16 in
  let n_marked = ref 0 in
  let changed = ref true in
  let mark i s =
    marked.(i).(s) <- true;
    incr n_marked;
    changed := true;
    let m = st.metas.(i) in
    Array.iteri
      (fun j r ->
        if m.pm_rule_strata.(j) = s then begin
          Hashtbl.replace wholesale_rids (m.pm_rid_base + j) ();
          List.iter
            (fun p ->
              Hashtbl.replace wpreds p ();
              Hashtbl.replace affected p ())
            (rule_head_preds r)
        end)
      m.pm_rules
  in
  (* fixpoint: closing [affected] can mark more strata (their heads are
     force-rederived, hence affected), which re-opens the closure *)
  while !changed do
    changed := false;
    close_affected st.phases affected;
    Array.iteri
      (fun i (m : phase_meta) ->
        Array.iteri
          (fun j (r : Rule.rule) ->
            let s = m.pm_rule_strata.(j) in
            if not marked.(i).(s) then begin
              let neg_hit =
                List.exists
                  (function
                    | Rule.Neg a -> Hashtbl.mem affected a.Rule.pred
                    | _ -> false)
                  r.Rule.body
              in
              let strat_agg =
                List.exists
                  (function
                    | Rule.Agg g -> g.Rule.mode = Rule.Stratified
                    | _ -> false)
                  r.Rule.body
              in
              let body_hit =
                List.exists (Hashtbl.mem affected) (rule_body_preds r)
              in
              let head_hit =
                List.exists (Hashtbl.mem affected) (rule_head_preds r)
              in
              (* head pred force-deleted by another marked stratum: this
                 rule's derivations are wiped with it, so it must re-run
                 wholesale too *)
              let head_in_w =
                List.exists (Hashtbl.mem wpreds) (rule_head_preds r)
              in
              if neg_hit || (strat_agg && (body_hit || head_hit)) || head_in_w
              then mark i s
            end)
          m.pm_rules)
      st.metas
  done;
  (* fallback gate: monotonic aggregates the counting machinery cannot
     carry. A profiled rule the update does not reach is safe (nothing
     touches its accumulators); a reached one must be counting, and a
     [sum] that met a negative weight is not monotone-nondecreasing, so
     its counting evidence would be unsound. The reached counting rules
     outside the marked strata are the ones [maintain] lists. *)
  let unprofiled = ref false in
  let noncounting_hit = ref false in
  let counting = ref [] in
  Array.iteri
    (fun i (m : phase_meta) ->
      Array.iteri
        (fun j (r : Rule.rule) ->
          let mono =
            List.exists
              (function
                | Rule.Agg g -> g.Rule.mode = Rule.Monotonic
                | _ -> false)
              r.Rule.body
          in
          if mono then
            match Hashtbl.find_opt st.agg_tbl (m.pm_rid_base + j) with
            | None -> unprofiled := true
            | Some log ->
                let wholesale = marked.(i).(m.pm_rule_strata.(j)) in
                let hit =
                  wholesale
                  || List.exists (Hashtbl.mem affected) (rule_body_preds r)
                  || List.exists (Hashtbl.mem affected) (rule_head_preds r)
                in
                if
                  hit
                  && ((not log.lg_profile.Analysis.ap_counting)
                      || (log.lg_profile.Analysis.ap_agg.Rule.op = Rule.Sum
                          && log.lg_neg))
                then noncounting_hit := true
                else if hit && not wholesale then counting := log :: !counting)
        m.pm_rules)
    st.metas;
  { pl_affected = affected; pl_marked = marked;
    pl_wpreds =
      List.sort_uniq String.compare (Hashtbl.fold (fun p () acc -> p :: acc) wpreds []);
    pl_wholesale_rids = wholesale_rids; pl_n_marked = !n_marked;
    pl_counting = List.rev !counting;
    pl_fallback =
      (not st.options.Engine.semi_naive) || !unprofiled || !noncounting_hit }

(* The engine options of a repair. A budget stop (deadline, facts,
   rounds) under [`Partial] would hand back a half-repaired store as a
   normal return, so a repair always runs under [`Raise], and the batch
   fails before it commits. *)
let repair_options st = { st.options with Engine.on_limit = `Raise }

(* Full re-chase against the batch's EDB: a copy of the EDB store (same
   dictionary, same fact arrays) with the batch applied, chased with
   fresh support. Null numbering is then up to {!canonical_facts},
   since the global null counter never rewinds. *)
let rechase ?telemetry ?journal ?pool st ~retracts ~inserts =
  let db = Database.copy st.edb in
  ignore (Database.apply_batch db ~retracts ~inserts);
  let support = Support.create () in
  register_agg_logs st;
  ignore
    (run_phases ?telemetry ?journal ?pool ~options:(repair_options st) st
       ~support
       db
       (List.map (fun (ph : Rule.program) -> { ph with Rule.facts = [] })
          st.phases));
  st.db <- db;
  st.support <- support

(* ------------------------------------------------------------------ *)
(* Counting maintenance reads a group from the store: its matches
   ({!Engine.agg_matches}), refolded as the engine folds them. The
   session keeps nothing per group but the accumulators. *)

(* [log]'s matches from [source]; a negative [sum] weight among them
   trips the fallback gate *)
let list_matches st log source =
  let ms = Engine.agg_matches st.db log.lg_agg source in
  if
    log.lg_profile.Analysis.ap_agg.Rule.op = Rule.Sum
    && List.exists
         (fun (m : Engine.agg_match) -> Engine.negative_weight m.Engine.am_weight)
         ms
  then log.lg_neg <- true;
  ms

(* the head facts of [log]'s group [gkey]: a counting profile makes
   every head variable a group variable *)
let group_heads log gkey =
  let bound = List.combine log.lg_profile.Analysis.ap_group_vars gkey in
  List.map
    (fun (a : Rule.atom) ->
      ( a.Rule.pred,
        Array.of_list
          (List.map
             (function Term.Const v -> v | Term.Var x -> List.assoc x bound)
             a.Rule.args) ))
    log.lg_rule.Rule.head

(* fold [ms] into their groups in [tbl], first match per contributor
   key, as the engine folds; [tbl] *)
let refold log tbl (ms : Engine.agg_match list) =
  List.iter
    (fun (m : Engine.agg_match) ->
      ignore
        (Engine.agg_contribute log.lg_profile.Analysis.ap_agg.Rule.op tbl
           m.Engine.am_group m.Engine.am_key (fun () -> m.Engine.am_weight)))
    ms;
  tbl

(* whether group [gkey] of [tbl] passes [log]'s conditions *)
let holds log tbl gkey =
  let prof = log.lg_profile in
  match Database.KeyTbl.find_opt tbl gkey with
  | Some { Engine.acc = Some total; _ } -> (
      let lookup v =
        if v = prof.Analysis.ap_agg.Rule.result then Some total
        else List.assoc_opt v (List.combine prof.Analysis.ap_group_vars gkey)
      in
      try List.for_all (Expr.truthy_fn lookup) prof.Analysis.ap_conds
      with Expr.Eval_error _ -> false)
  | _ -> false

(* [incremental.*] counters and the [maintain.end] record of one batch;
   a re-chase has no repair sizes to report *)
let report telemetry journal u =
  let count name by = Kgm_telemetry.count telemetry ~by ("incremental." ^ name) in
  if u.u_fallback then Kgm_telemetry.count telemetry "incremental.fallback";
  count "inserts" u.u_inserted;
  count "retracts" u.u_retracted;
  let sizes =
    if u.u_fallback then []
    else
      [ ("cone", u.u_cone); ("rederived", u.u_rederived);
        ("deleted", u.u_deleted); ("refired", u.u_refired);
        ("derived", u.u_derived); ("rounds", u.u_rounds);
        ("strata", u.u_strata); ("agg_groups", u.u_agg_groups) ]
  in
  List.iter (fun (name, n) -> count name n) sizes;
  if Journal.enabled journal then
    Journal.emit journal "maintain.end"
      ([ ("fallback", J.Bool u.u_fallback);
         ("inserted", J.Int u.u_inserted);
         ("retracted", J.Int u.u_retracted) ]
      @ List.map (fun (k, n) -> (k, J.Int n)) sizes
      @ [ ("elapsed_s", J.Float u.u_elapsed_s) ])

(* ------------------------------------------------------------------ *)
(* The repair steps (see the top of this file) *)

(* What [overdelete] found *)
type cone = {
  cn_facts : (string * Database.fact) list;  (* discovery order *)
  cn_mem : unit Support.Tbl.t;
  cn_forced : unit Support.Tbl.t;  (* wholesale strata's derived facts *)
  cn_forced_nulls : (int, unit) Hashtbl.t;  (* and the nulls they invented *)
  cn_risk : (int, (string * Database.fact) list) Hashtbl.t;
      (* at-risk null -> parents of its creating derivation ([] if forced) *)
  cn_touched : (agg_log * Value.t list) list;  (* touched groups, touch order *)
  cn_matches : Engine.agg_match list Lazy.t Database.KeyTbl.t;
      (* a touched group's matches, by [gid], listed once *)
}

let gid log gkey = Value.Int log.lg_rid :: gkey

let overdelete st plan ~is_edb retracts =
  let sup = st.support in
  (* every derived fact of a marked stratum's head predicates is
     discarded (the rerun re-derives what still holds), and so is every
     null those discarded derivations invented *)
  let forced = Support.Tbl.create 64 and forced_nulls = Hashtbl.create 16 in
  let forced_seeds = ref [] in
  List.iter
    (fun pred ->
      List.iter
        (fun f ->
          if not (is_edb pred f) then begin
            Support.Tbl.replace forced (Support.key pred f) ();
            forced_seeds := (pred, f) :: !forced_seeds;
            List.iter
              (fun (e : Support.entry) ->
                List.iter
                  (fun n ->
                    if not (Hashtbl.mem forced_nulls n) then begin
                      Hashtbl.replace forced_nulls n ();
                      forced_seeds :=
                        List.rev_append (Support.carriers sup n) !forced_seeds
                    end)
                  e.se_nulls)
              (Support.entries sup pred f)
          end)
        (Database.facts st.db pred))
    plan.pl_wpreds;
  (* the cone: reverse reachability from the retractions and the forced
     facts *)
  let touched = ref [] and matches = Database.KeyTbl.create 16 in
  let cone = Support.Tbl.create 256 and order = ref [] in
  let risk = Hashtbl.create 16 in
  Hashtbl.iter (fun n () -> Hashtbl.replace risk n []) forced_nulls;
  let queue = Queue.create () in
  let enqueue pf = Queue.add pf queue in
  List.iter enqueue retracts;
  List.iter enqueue (List.rev !forced_seeds);
  while not (Queue.is_empty queue) do
    let (p, f) = Queue.pop queue in
    let k = Support.key p f in
    if Database.mem st.db p f && not (Support.Tbl.mem cone k) then begin
      Support.Tbl.add cone k ();
      order := (p, f) :: !order;
      let children = Support.children sup p f in
      List.iter enqueue children;
      (* a dying match shrinks its group's total: the group's heads
         must be re-judged, support edges or not *)
      List.iter
        (fun log ->
          List.iter
            (fun (m : Engine.agg_match) ->
              let gkey = m.Engine.am_group in
              if not (Database.KeyTbl.mem matches (gid log gkey)) then begin
                Database.KeyTbl.add matches (gid log gkey)
                  (lazy (list_matches st log (`Group (List.map Option.some gkey))));
                touched := (log, gkey) :: !touched;
                List.iter enqueue (group_heads log gkey)
              end)
            (list_matches st log (`Fact (p, f))))
        plan.pl_counting;
      (* the nulls a derivation consuming the fact invented are at risk,
         and so is every fact carrying them; that entry names the
         null's creating parents *)
      if Support.invented sup then
        List.iter
          (fun (q, g) ->
            List.iter
              (fun (e : Support.entry) ->
                if
                  e.se_nulls <> []
                  && List.exists (Support.parent_equal (p, f)) e.se_parents
                then
                  List.iter
                    (fun n ->
                      if not (Hashtbl.mem risk n) then begin
                        Hashtbl.add risk n e.se_parents;
                        List.iter enqueue (Support.carriers sup n)
                      end)
                    e.se_nulls)
              (Support.entries sup q g))
          children
    end
  done;
  { cn_facts = List.rev !order; cn_mem = cone; cn_forced = forced;
    cn_forced_nulls = forced_nulls; cn_risk = risk;
    cn_touched = List.rev !touched; cn_matches = matches }

(* inside the cone, as [alive] has decided so far; outside, iff stored *)
let fact_alive st cone alive (p, f) =
  let k = Support.key p f in
  if Support.Tbl.mem cone.cn_mem k then Support.Tbl.mem alive k
  else Database.mem st.db p f

(* touched group [gkey]'s matches with all parents alive *)
let alive_matches st cone alive log gkey =
  List.filter
    (fun (m : Engine.agg_match) ->
      List.for_all (fact_alive st cone alive) m.Engine.am_parents)
    (Lazy.force (Database.KeyTbl.find cone.cn_matches (gid log gkey)))

(* The least fixpoint inside the cone: a fact is alive iff extensional,
   or its nulls are alive and it has DRed or counting evidence; an
   at-risk null is alive iff all parents of its creating derivation
   are. Returns the alive facts and nulls. *)
let alive st plan ~is_edb cone =
  let alive = Support.Tbl.create 256 and alive_nulls = Hashtbl.create 16 in
  let null_alive n =
    (not (Hashtbl.mem cone.cn_risk n)) || Hashtbl.mem alive_nulls n
  in
  let all_alive = List.for_all (fact_alive st cone alive) in
  (* aggregate-rule entries are never deletion evidence: a surviving
     entry says nothing about the group's post-retraction total *)
  let entry_evidence (e : Support.entry) =
    (not (Hashtbl.mem st.agg_tbl e.se_rule)) && all_alive e.se_parents
  in
  (* counting evidence: a group of a head atom the fact grounds still
     passes — a touched one refolded from its matches with all parents
     alive, an untouched one as its accumulator stands *)
  let counting_evidence p f =
    List.exists
      (fun log ->
        List.exists
          (fun gkey ->
            if Database.KeyTbl.mem cone.cn_matches (gid log gkey) then
              let tbl = Database.KeyTbl.create 1 in
              holds log (refold log tbl (alive_matches st cone alive log gkey)) gkey
            else holds log log.lg_state gkey)
          (Engine.agg_head_groups st.db log.lg_agg (p, f)))
      plan.pl_counting
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p, f) ->
        let k = Support.key p f in
        if
          (not (Support.Tbl.mem alive k))
          && (not (Support.Tbl.mem cone.cn_forced k))
          && (is_edb p f
             || List.for_all null_alive (Support.fact_nulls f)
                && (List.exists entry_evidence (Support.entries st.support p f)
                   || counting_evidence p f))
        then begin
          Support.Tbl.add alive k ();
          changed := true
        end)
      cone.cn_facts;
    Hashtbl.iter
      (fun n origin ->
        if
          (not (Hashtbl.mem alive_nulls n))
          && (not (Hashtbl.mem cone.cn_forced_nulls n))
          && all_alive origin
        then begin
          Hashtbl.add alive_nulls n ();
          changed := true
        end)
      cone.cn_risk
  done;
  (alive, alive_nulls)

(* What [delete] leaves [reseed] *)
type deletion = {
  dl_deleted : int;
  dl_refire : (string * Database.fact) list list;
      (* parents of the suppressed firings to re-attempt, recording order *)
  dl_regrow : (string * Database.fact) list;
      (* surviving parents of the groups to regrow *)
}

(* The negative-weight gate, then cone minus alive goes in one
   {!Database.remove_batch} call (survivors keep their relative order —
   the determinism invariant), the touched groups are refolded, and the
   support is pruned. [None] when the gate trips: the batch re-chases. *)
let delete ~journal st plan cone (alive, alive_nulls) =
  (* every touched group is listed before anything is deleted, so a
     negative weight the listings meet trips the gate here *)
  List.iter
    (fun (log, gkey) -> ignore (alive_matches st cone alive log gkey))
    cone.cn_touched;
  if List.exists (fun log -> log.lg_neg) plan.pl_counting then None
  else begin
    let dead (p, f) =
      let k = Support.key p f in
      Support.Tbl.mem cone.cn_mem k && not (Support.Tbl.mem alive k)
    in
    let dead_facts = List.filter dead cone.cn_facts in
    let dead_nulls =
      Hashtbl.fold
        (fun n _ acc -> if Hashtbl.mem alive_nulls n then acc else n :: acc)
        cone.cn_risk []
    in
    let deleted = Database.remove_batch st.db dead_facts in
    (* each touched group's accumulator is refolded from its surviving
       matches; one that now passes with a head missing is dropped
       instead, and its survivors' parents join the seeds, so the pass
       refolds it and fires the head *)
    let regrow =
      List.concat_map
        (fun (log, gkey) ->
          let state = log.lg_state in
          let ms = alive_matches st cone alive log gkey in
          Database.KeyTbl.remove state gkey;
          let missing (p, f) = not (Database.mem st.db p f) in
          if
            holds log (refold log state ms) gkey
            && List.exists missing (group_heads log gkey)
          then begin
            Database.KeyTbl.remove state gkey;
            List.concat_map (fun (m : Engine.agg_match) -> m.Engine.am_parents) ms
          end
          else [])
        cone.cn_touched
    in
    if Journal.enabled journal then
      Journal.emit journal "dred.cone"
        [ ("cone", J.Int (List.length cone.cn_facts));
          ("rederived", J.Int (List.length cone.cn_facts - deleted));
          ("deleted", J.Int deleted);
          ("risk_nulls", J.Int (Hashtbl.length cone.cn_risk));
          ("dead_nulls", J.Int (List.length dead_nulls));
          ("forced", J.Int (Support.Tbl.length cone.cn_forced));
          ("wholesale_strata", J.Int plan.pl_n_marked);
          ("agg_groups", J.Int (List.length cone.cn_touched)) ];
    (* wholesale derivations are void even when their fact survives as
       EDB: their entries drop (the rerun re-records what still holds)
       and their accumulators empty *)
    let void = Hashtbl.mem plan.pl_wholesale_rids in
    Support.prune st.support ~dead dead_facts ~nulls:dead_nulls ~void
      ~kept:
        (List.concat_map
           (fun p -> List.map (fun f -> (p, f)) (Database.facts st.db p))
           plan.pl_wpreds);
    Hashtbl.iter
      (fun rid (log : agg_log) ->
        if void rid then Database.KeyTbl.reset log.lg_state)
      st.agg_tbl;
    (* suppressed firings: wholesale rules re-attempt everything in
       their rerun, so their records just drop; elsewhere, drop the
       ones whose body died and re-attempt the ones whose witness image
       died (chronological recording order, so the seed order — and
       with it null numbering — is deterministic) *)
    let refire = Support.sweep_suppressed st.support ~dead ~void in
    Some { dl_deleted = deleted; dl_refire = refire; dl_regrow = regrow }
  end

(* Fresh inserts, refire parents and regrow parents seed one seeded
   engine pass per relevant phase: plain strata start from the seeds,
   wholesale strata re-derive on the maintained lower strata, and every
   later stratum also sees what the pass itself derived. Returns the
   facts derived and the rounds run. *)
let reseed ~telemetry ~journal ?pool st plan ~is_edb ~inserts del =
  (* an insert already in the store (derived, or listed twice) is no
     seed: its consequences already exist *)
  let fresh =
    List.filter
      (fun (p, f) -> (not (is_edb p f)) && Database.add st.db p f)
      inserts
  in
  (* the seeds, each once, per predicate in insertion order *)
  let seeds = Database.create ~dict:(Database.dict st.db) () in
  ignore
    (Database.apply_batch seeds ~retracts:[]
       ~inserts:
         (fresh
         @ List.filter
             (fun (p, f) -> Database.mem st.db p f)
             (List.concat del.dl_refire @ del.dl_regrow)));
  let seed =
    List.map (fun p -> (p, Database.facts seeds p)) (Database.predicates seeds)
  in
  (* later phases must also see what earlier phases of this same batch
     derived, exactly as they would in a fresh pipeline *)
  let extra = ref [] in
  let reach = Hashtbl.copy plan.pl_affected in
  List.iter (fun (p, _) -> Hashtbl.replace reach p ()) seed;
  let on_new p f =
    extra := (p, f) :: !extra;
    Hashtbl.replace reach p ()
  in
  let derived = ref 0 and rounds = ref 0 in
  List.iteri
    (fun i (ph : Rule.program) ->
      let m = st.metas.(i) in
      let marked = plan.pl_marked.(i) in
      let phase_seed = seed @ List.rev_map (fun (p, f) -> (p, [ f ])) !extra in
      (* a phase the update cannot reach derives nothing new: skip it
         instead of scanning every rule against the seeds *)
      let relevant =
        Array.exists Fun.id marked
        || (phase_seed <> []
            && Array.exists
                 (fun (r : Rule.rule) ->
                   List.exists (Hashtbl.mem reach) (rule_body_preds r))
                 m.pm_rules)
      in
      if relevant then begin
        let stats =
          Engine.run_delta ~options:(repair_options st) ~support:st.support
            ~telemetry ~journal ?pool ~on_new ~rule_ids:(phase_rule_ids m)
            ~agg_init:(agg_init_for st m) ~wholesale:(Array.get marked) ph
            st.db ~seed:phase_seed
        in
        note_negatives st stats;
        derived := !derived + stats.Engine.new_facts;
        rounds := !rounds + stats.Engine.rounds
      end)
    st.phases;
  (!derived, !rounds)

let maintain ?(telemetry = Kgm_telemetry.null)
    ?(journal = Kgm_telemetry.Journal.null) ?pool st ~inserts ~retracts =
  let t0 = Kgm_telemetry.Clock.now () in
  (* retractions only make sense against the EDB; a derived fact would
     simply be rederived. Until the batch commits, a fact is extensional
     iff the EDB store holds it and [gone] (this batch's retractions,
     each once) does not *)
  let retracts = List.filter (fun (p, f) -> Database.mem st.edb p f) retracts in
  let gone = Database.create ~dict:(Database.dict st.edb) () in
  ignore (Database.apply_batch gone ~retracts:[] ~inserts:retracts);
  let is_edb p f = Database.mem st.edb p f && not (Database.mem gone p f) in
  if Journal.enabled journal then
    Journal.emit journal "maintain.start"
      [ ("inserts", J.Int (List.length inserts));
        ("retracts", J.Int (Database.total gone)) ];
  let updated =
    List.sort_uniq String.compare (List.map fst (inserts @ retracts))
  in
  let by_rechase () =
    rechase ~telemetry ~journal ?pool st ~retracts ~inserts;
    st.torn <- false;
    { u_inserted = 0; u_retracted = 0; u_cone = 0; u_rederived = 0;
      u_deleted = 0; u_refired = 0; u_derived = 0; u_rounds = 0;
      u_strata = 0; u_agg_groups = 0; u_fallback = true; u_elapsed_s = 0. }
  in
  (* the repair: the store and the support, never the EDB; it returns
     the batch's repair sizes *)
  let repair () =
    if st.torn then by_rechase ()
    else
      let plan = plan_update st updated in
      if updated <> [] && plan.pl_fallback then by_rechase ()
      else
        let cone = overdelete st plan ~is_edb retracts in
        (* sizes first: nothing of the cone may stay reachable through
           [reseed]'s engine pass, whose minor collections would promote
           it *)
        let cone_n = List.length cone.cn_facts in
        let groups = List.length cone.cn_touched in
        match delete ~journal st plan cone (alive st plan ~is_edb cone) with
        | None -> by_rechase ()
        | Some del ->
            let deleted = del.dl_deleted in
            let refired = List.length del.dl_refire in
            let derived, rounds =
              reseed ~telemetry ~journal ?pool st plan ~is_edb ~inserts del
            in
            { u_inserted = 0; u_retracted = 0; u_cone = cone_n;
              u_rederived = cone_n - deleted; u_deleted = deleted;
              u_refired = refired; u_derived = derived; u_rounds = rounds;
              u_strata = plan.pl_n_marked; u_agg_groups = groups;
              u_fallback = false; u_elapsed_s = 0. }
  in
  match repair () with
  | exception e ->
      (* the store may be half-repaired, but the EDB is as before the
         batch; the next batch re-chases it *)
      let bt = Printexc.get_raw_backtrace () in
      st.torn <- true;
      Printexc.raise_with_backtrace e bt
  | stats ->
      (* the commit: after the repair returned, and it cannot raise *)
      let u_retracted, u_inserted =
        Database.apply_batch st.edb ~retracts ~inserts
      in
      let stats =
        { stats with u_inserted; u_retracted;
          u_elapsed_s = Kgm_telemetry.Clock.now () -. t0 }
      in
      report telemetry journal stats;
      stats

(* ------------------------------------------------------------------ *)
(* Canonical form: null ids are process-global and never rewind, so a
   maintained database and a from-scratch re-chase carry different
   absolute ids for what is the same labeled null. Renumber them
   densely in first-occurrence order over a sort that masks nulls by
   their within-fact repetition pattern — an order computable without
   knowing the renaming. *)

(* number nulls densely in first-occurrence order, through [seen] *)
let rec rename seen v =
  match v with
  | Value.Null k ->
      let i =
        match Hashtbl.find_opt seen k with
        | Some i -> i
        | None ->
            let i = Hashtbl.length seen in
            Hashtbl.add seen k i;
            i
      in
      Value.Null i
  | Value.List l -> Value.List (List.map (rename seen) l)
  | v -> v

let local_pattern (f : Database.fact) =
  let seen = Hashtbl.create 4 in
  List.map (rename seen) (Array.to_list f)

let compare_vlist = List.compare Value.compare

let canonical_facts dbase =
  let canon = rename (Hashtbl.create 64) in
  List.map
    (fun pred ->
      let sorted =
        Database.facts dbase pred
        |> List.map (fun f -> (local_pattern f, f))
        |> List.stable_sort (fun (a, _) (b, _) -> compare_vlist a b)
      in
      let renamed = List.map (fun (_, f) -> Array.map canon f) sorted in
      let final =
        List.sort
          (fun a b -> compare_vlist (Array.to_list a) (Array.to_list b))
          renamed
      in
      (pred, final))
    (Database.predicates dbase)

(* Exact isomorphism decision, used when the canonical forms differ.

   First-occurrence renaming is sound but incomplete: fact sets that
   differ only by a cross-fact null permutation can sort into different
   orders and canonicalize apart (e.g. the chain p(n1,n2), p(n2,n3)
   inserted in the opposite order). The exact check searches for a
   bijection on null labels instead. Facts without nulls must match
   exactly; facts with nulls can only map to facts of the same
   predicate with the same within-fact null pattern, so the search
   backtracks only inside those (pred, pattern) groups while a global
   bijection [sigma] accumulates cross-fact constraints. Group sizes
   are small in practice (they share a masked shape), so the worst-case
   factorial blowup stays theoretical. *)
let iso_facts a b =
  let sigma : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let sigma_inv : (int, int) Hashtbl.t = Hashtbl.create 32 in
  (* unify a value of [a] with a value of [b] under the bijection;
     returns the newly bound pairs (for undo) or None on clash *)
  let rec unify u v acc =
    match (u, v) with
    | Value.Null j, Value.Null k -> (
        match (Hashtbl.find_opt sigma j, Hashtbl.find_opt sigma_inv k) with
        | Some k', _ -> if k' = k then Some acc else None
        | None, Some _ -> None
        | None, None ->
            Hashtbl.add sigma j k;
            Hashtbl.add sigma_inv k j;
            Some ((j, k) :: acc))
    | Value.Null _, _ | _, Value.Null _ -> None
    | Value.List l1, Value.List l2 ->
        if List.compare_lengths l1 l2 <> 0 then None
        else
          List.fold_left2
            (fun acc u v ->
              match acc with None -> None | Some acc -> unify u v acc)
            (Some acc) l1 l2
    | u, v -> if Value.equal u v then Some acc else None
  in
  let undo pairs =
    List.iter
      (fun (j, k) ->
        Hashtbl.remove sigma j;
        Hashtbl.remove sigma_inv k)
      pairs
  in
  let unify_fact (f : Database.fact) (g : Database.fact) =
    let n = Array.length f in
    if n <> Array.length g then None
    else
      let rec go i acc =
        if i >= n then Some acc
        else
          match unify f.(i) g.(i) acc with
          | None ->
              undo acc;
              None
          | Some acc -> go (i + 1) acc
      in
      go 0 []
  in
  let fact_has_null f = Support.fact_nulls f <> [] in
  (* consecutive grouping of a pattern-sorted (pattern, fact) list *)
  let group_null_facts facts =
    facts
    |> List.filter fact_has_null
    |> List.map (fun f -> (local_pattern f, f))
    |> List.stable_sort (fun (p1, _) (p2, _) -> compare_vlist p1 p2)
    |> List.fold_left
         (fun groups (pat, f) ->
           match groups with
           | (pat', fs) :: rest when compare_vlist pat pat' = 0 ->
               (pat', f :: fs) :: rest
           | _ -> (pat, [ f ]) :: groups)
         []
    |> List.rev
  in
  let sorted_ground facts =
    facts
    |> List.filter (fun f -> not (fact_has_null f))
    |> List.map Array.to_list
    |> List.sort compare_vlist
  in
  let preds_a = List.sort compare (Database.predicates a) in
  let preds_b = List.sort compare (Database.predicates b) in
  List.equal String.equal preds_a preds_b
  &&
  (* per predicate: ground facts as multisets, null facts per group *)
  let exception Shape_mismatch in
  match
    List.map
      (fun pred ->
        let fa = Database.facts a pred and fb = Database.facts b pred in
        if
          not
            (List.equal
               (fun x y -> compare_vlist x y = 0)
               (sorted_ground fa) (sorted_ground fb))
        then raise Shape_mismatch;
        let ga = group_null_facts fa and gb = group_null_facts fb in
        if List.compare_lengths ga gb <> 0 then raise Shape_mismatch;
        List.map2
          (fun (pa, fsa) (pb, fsb) ->
            if
              compare_vlist pa pb <> 0 || List.compare_lengths fsa fsb <> 0
            then raise Shape_mismatch;
            (fsa, Array.of_list fsb, Array.make (List.length fsb) false))
          ga gb)
      preds_a
  with
  | exception Shape_mismatch -> false
  | groups ->
      (* backtracking assignment of each [a]-fact to an unused same-
         group [b]-fact, threading the global bijection *)
      let rec assign = function
        | [] -> true
        | (fs, gb, used) :: rest -> (
            match fs with
            | [] -> assign rest
            | f :: fs' ->
                let n = Array.length gb in
                let rec try_k k =
                  k < n
                  && (((not used.(k))
                      &&
                      match unify_fact f gb.(k) with
                      | None -> false
                      | Some pairs ->
                          used.(k) <- true;
                          if assign ((fs', gb, used) :: rest) then true
                          else begin
                            used.(k) <- false;
                            undo pairs;
                            false
                          end)
                     || try_k (k + 1))
                in
                try_k 0)
      in
      assign (List.concat groups)

let equal_facts a b =
  (* fast path: the first-occurrence canonical forms agree — sound, and
     complete for the overwhelmingly common case where the masked-
     pattern sort pins every fact's position *)
  let fact_eq f g = compare_vlist (Array.to_list f) (Array.to_list g) = 0 in
  List.equal
    (fun (p1, fs1) (p2, fs2) -> String.equal p1 p2 && List.equal fact_eq fs1 fs2)
    (canonical_facts a) (canonical_facts b)
  || iso_facts a b
