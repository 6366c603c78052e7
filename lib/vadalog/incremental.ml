(** Incremental maintenance: insert/retract deltas over a completed
    chase, repaired in place instead of re-chased.

    Inserts are the easy half: a new extensional fact is exactly a
    seed for {!Engine.run_delta}, the seeded semi-naive pass that
    already powers the engine's per-stratum delta rounds — only
    consequences of the batch are evaluated, with the planner's
    delta-first plans and the pool's parallel rounds intact.

    Retractions use delete-and-rederive (DRed), recast over the
    support recorded during the chase:

    {ol
    {- {e Overdeletion cone.} Walk the support's reverse edges
       ([sup_children]) from the retracted facts: everything reachable
       has at least one derivation that (transitively) consumed a
       retracted fact. When a cone fact is an origin parent of a
       labeled null, the null is {e at risk} and every fact carrying
       it joins the cone too (a null is only meaningful while its
       creating derivation stands). When a cone fact fed a monotonic
       aggregate, the group it contributed to is {e touched} and the
       group's head facts join the cone (the group total shrinks, so
       heads that only ever passed a threshold thanks to the dying
       contribution must be re-judged — the support graph alone cannot
       see this, because sub-threshold contributions never fired).}
    {- {e Alive closure.} Inside the cone, compute the least fixpoint
       of: a fact is alive iff it is (still) extensional, or all nulls
       in its tuple are alive and it has sound derivation evidence —
       a recorded non-aggregate derivation with all parents alive, or
       a touched aggregate group whose {e surviving} contributions
       still drive its conditions true ({e counting} evidence: the
       group state is refolded from the contribution log, so evidence
       reflects the post-retraction totals, not the stale support).
       An at-risk null is alive iff all parents of its creating
       derivation are alive.}
    {- {e Deletion.} Cone minus alive is removed in one
       {!Database.remove_batch} call (survivors keep their relative
       order — the determinism invariant); the [on_remove] hook keeps
       the aggregate group logs in step, and the support is pruned:
       entries of dead facts, entries of surviving facts that consumed
       a dead parent, origin/carrier records of dead nulls, and
       suppressed-firing records whose parents died.}
    {- {e Rederivation.} A suppressed restricted-chase firing whose
       witness image died is re-attempted: its parents are seeded into
       the same {!Engine.run_delta} pass as the inserts, so the rule
       re-fires through the normal machinery and may now invent.}}

    {b Stratum-aware non-monotonicity.} Stratified negation and
    [Stratified] aggregation are non-monotone, so support entries
    recorded under them are not sound deletion evidence — but that
    only poisons the strata actually containing them. Each phase is
    stratified once ({!Analysis.stratify}); when the update's affected
    closure reaches a rule with stratified negation or aggregation,
    that rule's {e stratum} is marked {e wholesale}: its derived facts
    are force-deleted through the cone and the stratum is re-derived
    by round 0 of the phase's one seeded pass ({!Engine.run_delta}'s
    [?wholesale]) on top of the already-maintained lower strata —
    never from scratch. Strata below and beside the mark keep the DRed
    path above; [Monotonic] aggregates (the paper's [msum]) keep it
    too, through counting evidence. A full re-chase survives only for
    updates the machinery genuinely cannot localize: a non-semi-naive
    engine, a monotonic aggregate outside {!Analysis.monotonic_profiles},
    or an affected non-counting monotonic rule (order-sensitive
    accumulators such as [pack] running totals). *)

open Kgm_common
module Journal = Kgm_telemetry.Journal
module J = Kgm_telemetry.Json

(* -------- aggregate contribution logs (counting maintenance) -------- *)

(** One aggregation group of one monotonic rule: every distinct
    contribution the engine folded (including sub-threshold ones that
    never fired) and every head fact the group produced. *)
type group_log = {
  mutable gl_contribs :
    (Value.t list * Value.t * (string * Database.fact) list) list;
      (** (dedup key, weight, body parents), reverse chronological *)
  mutable gl_heads : (string * Database.fact) list;  (** reverse chrono *)
  gl_head_set : unit Engine.ProvTbl.t;
  mutable gl_touched : bool;  (** scratch, one {!maintain} call *)
  mutable gl_pass_true : bool;  (** scratch: counting evidence cache *)
  mutable gl_dirty : bool;  (** scratch: heads pruned during removal *)
  mutable gl_defunct : bool;
      (** the log holding this group was reset (wholesale rerun or
          fallback); persistent index entries pointing here are stale *)
}

type agg_log = {
  lg_rid : int;  (** pipeline-global recording id of the rule *)
  lg_phase : int;
  lg_profile : Analysis.agg_profile;
  lg_body_preds : string list;
  lg_head_preds : string list;
  lg_groups : group_log Database.KeyTbl.t;
  lg_state : Engine.agg_state;
      (** live accumulators, mirroring the engine's: handed to
          {!Engine.run_delta} as [agg_init] (which then mutates them in
          place) and resynced from surviving contributions after a
          retraction — never refolded wholesale *)
  mutable lg_neg : bool;
      (** a negative weight was recorded at some point: [sum] counting
          evidence is then unsound and the fallback gate fires *)
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
  idx_parent : (agg_log * Value.t list * group_log) list ref Engine.ProvTbl.t;
      (** contribution parent fact -> the groups it feeds; persistent,
          appended as contributions are recorded, so a maintain pays
          cone-sized lookups instead of a materialization-sized build *)
  idx_head : (agg_log * Value.t list * group_log) list ref Engine.ProvTbl.t;
      (** aggregate head fact -> the groups that derived it *)
  mutable db : Database.t;
  mutable support : Engine.support;
  edb_set : (string * Database.fact) Engine.ProvTbl.t;
      (** EDB fact -> its entry in [edb_order] (compared physically) *)
  mutable edb_order : (string * Database.fact) list;
      (** reverse load order; a retracted fact's entry lingers until
          [edb_compact] drops it, and a re-insertion adds a new entry *)
  mutable edb_stale : int;  (** entries of [edb_order] no longer current *)
  mutable torn : bool;
      (** a {!maintain} raised mid-repair: the store matches neither the
          pre- nor the post-batch EDB, so the next batch re-chases *)
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

let key pred fact = (pred, Array.to_list fact)

let edb_note st pred fact =
  let k = key pred fact in
  if not (Engine.ProvTbl.mem st.edb_set k) then begin
    let e = (pred, fact) in
    Engine.ProvTbl.add st.edb_set k e;
    st.edb_order <- e :: st.edb_order;
    true
  end
  else false

let edb_current st ((p, f) as e) =
  match Engine.ProvTbl.find_opt st.edb_set (key p f) with
  | Some e' -> e' == e
  | None -> false

(* each fact once, at its latest insertion *)
let edb_compact st =
  st.edb_order <- List.filter (edb_current st) st.edb_order;
  st.edb_stale <- 0

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

let register_agg_logs st =
  (* anything pointing into the old logs (persistent indexes) is stale *)
  Hashtbl.iter
    (fun _ log ->
      Database.KeyTbl.iter (fun _ g -> g.gl_defunct <- true) log.lg_groups)
    st.agg_tbl;
  Engine.ProvTbl.reset st.idx_parent;
  Engine.ProvTbl.reset st.idx_head;
  Hashtbl.reset st.agg_tbl;
  List.iteri
    (fun i (ph : Rule.program) ->
      let m = st.metas.(i) in
      List.iter
        (fun (prof : Analysis.agg_profile) ->
          let r = m.pm_rules.(prof.Analysis.ap_rule) in
          let rid = m.pm_rid_base + prof.Analysis.ap_rule in
          Hashtbl.replace st.agg_tbl rid
            { lg_rid = rid; lg_phase = i; lg_profile = prof;
              lg_body_preds = List.sort_uniq String.compare (rule_body_preds r);
              lg_head_preds = List.sort_uniq String.compare (rule_head_preds r);
              lg_groups = Database.KeyTbl.create 16;
              lg_state = Database.KeyTbl.create 16; lg_neg = false })
        (Analysis.monotonic_profiles ph))
    st.phases

let log_group log gkey =
  match Database.KeyTbl.find_opt log.lg_groups gkey with
  | Some g -> g
  | None ->
      let g =
        { gl_contribs = []; gl_heads = [];
          gl_head_set = Engine.ProvTbl.create 8; gl_touched = false;
          gl_pass_true = false; gl_dirty = false; gl_defunct = false }
      in
      Database.KeyTbl.add log.lg_groups gkey g;
      g

let value_negative = function
  | Value.Int n -> n < 0
  | Value.Float f -> f < 0.0
  | _ -> false

(* groups of one log are recorded in bursts, so a bucket-head check
   dedups most repeated (parent, group) pairs; the few that slip
   through only cost a redundant touch *)
let index_add tbl k ((_, _, g) as entry) =
  match Engine.ProvTbl.find_opt tbl k with
  | Some r -> (
      match !r with
      | (_, _, g') :: _ when g' == g -> ()
      | _ -> r := entry :: !r)
  | None -> Engine.ProvTbl.add tbl k (ref [ entry ])

let record_agg_event st = function
  | Engine.Agg_contrib { ac_rule; ac_group; ac_key; ac_weight; ac_parents } ->
      (match Hashtbl.find_opt st.agg_tbl ac_rule with
       | None -> ()
       | Some log ->
           let g = log_group log ac_group in
           g.gl_contribs <- (ac_key, ac_weight, ac_parents) :: g.gl_contribs;
           if value_negative ac_weight then log.lg_neg <- true;
           (* replica accumulator: when the engine runs on [lg_state]
              itself (a delta pass seeded through [agg_init]), its
              seen-set already holds the key and this is a no-op *)
           ignore
             (Engine.agg_contribute log.lg_profile.Analysis.ap_agg.Rule.op
                log.lg_state ac_group ac_key (fun () -> ac_weight));
           let entry = (log, ac_group, g) in
           List.iter
             (fun (p, f) -> index_add st.idx_parent (key p f) entry)
             ac_parents)
  | Engine.Agg_head { ah_rule; ah_group; ah_pred; ah_fact } ->
      (match Hashtbl.find_opt st.agg_tbl ah_rule with
       | None -> ()
       | Some log ->
           let g = log_group log ah_group in
           let k = key ah_pred ah_fact in
           if not (Engine.ProvTbl.mem g.gl_head_set k) then begin
             Engine.ProvTbl.add g.gl_head_set k ();
             g.gl_heads <- (ah_pred, ah_fact) :: g.gl_heads;
             index_add st.idx_head k (log, ah_group, g)
           end)

let phase_rule_ids (m : phase_meta) =
  Array.init (Array.length m.pm_rules) (fun j -> m.pm_rid_base + j)

(* Chase [phases] (the state's pipeline, possibly facts-stripped) in
   order on [db], recording into [support] and the aggregate logs. *)
let run_phases ?telemetry ?journal ~options st ~support db phases =
  List.mapi
    (fun i ph ->
      Engine.run ~options ~support ?telemetry ?journal
        ~on_agg:(record_agg_event st) ~rule_ids:(phase_rule_ids st.metas.(i))
        ph db)
    phases
  |> function
  | s :: rest -> List.fold_left Engine.merge_stats s rest
  | [] -> invalid_arg "Incremental.chase_phases: empty pipeline"

let chase_phases ?(options = Engine.default_options) ?telemetry ?journal ~db
    phases =
  let metas = build_metas phases in
  let st =
    { phases; options; metas; agg_tbl = Hashtbl.create 16;
      idx_parent = Engine.ProvTbl.create 256;
      idx_head = Engine.ProvTbl.create 256; db;
      support = Engine.create_support ();
      edb_set = Engine.ProvTbl.create 256; edb_order = []; edb_stale = 0;
      torn = false }
  in
  register_agg_logs st;
  (* the EDB is everything loaded rather than derived: facts already in
     the database plus each phase's own fact list *)
  List.iter
    (fun pred -> List.iter (fun f -> ignore (edb_note st pred f)) (Database.facts db pred))
    (Database.predicates db);
  List.iter
    (fun (ph : Rule.program) ->
      List.iter (fun (p, args) -> ignore (edb_note st p (Array.of_list args))) ph.Rule.facts)
    phases;
  (st,
   run_phases ?telemetry ?journal ~options st ~support:st.support db phases)

let chase ?options ?telemetry ?journal ?(db = Database.create ()) program =
  chase_phases ?options ?telemetry ?journal ~db [ program ]

let db st = st.db
let phases st = st.phases
let support st = st.support

let edb_facts st = List.rev (List.filter (edb_current st) st.edb_order)

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
  pl_wpreds : (string, unit) Hashtbl.t;  (* head preds of marked strata *)
  pl_wholesale_rids : (int, unit) Hashtbl.t;
  pl_n_marked : int;
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
     carry. A profiled-but-untouched rule is safe (its accumulators are
     reinstated verbatim); a touched one must be counting, and a [sum]
     with a recorded negative weight is not monotone-nondecreasing, so
     its counting evidence would be unsound. *)
  let unprofiled = ref false in
  let noncounting_hit = ref false in
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
                let hit =
                  marked.(i).(m.pm_rule_strata.(j))
                  || List.exists (Hashtbl.mem affected) log.lg_body_preds
                  || List.exists (Hashtbl.mem affected) log.lg_head_preds
                in
                if
                  hit
                  && ((not log.lg_profile.Analysis.ap_counting)
                      || (log.lg_profile.Analysis.ap_agg.Rule.op = Rule.Sum
                          && log.lg_neg))
                then noncounting_hit := true)
        m.pm_rules)
    st.metas;
  { pl_affected = affected; pl_marked = marked; pl_wpreds = wpreds;
    pl_wholesale_rids = wholesale_rids; pl_n_marked = !n_marked;
    pl_fallback =
      (not st.options.Engine.semi_naive) || !unprofiled || !noncounting_hit }

(* The engine options of a repair. A budget stop (deadline, facts,
   rounds) under [`Partial] would hand back a half-repaired store as a
   normal return, so a repair always runs under [`Raise] and
   {!atomically} undoes the batch instead. *)
let repair_options st = { st.options with Engine.on_limit = `Raise }

(* Full re-chase against the updated EDB: fresh database, fresh
   support, the EDB replayed in its original load order (determinism of
   null numbering is then up to {!canonical_facts}, since the global
   null counter never rewinds). *)
let rechase ?telemetry ?journal st =
  let db' = Database.create () in
  let support' = Engine.create_support () in
  let ordered = edb_facts st in
  List.iter (fun (p, f) -> ignore (Database.add db' p f)) ordered;
  register_agg_logs st;
  ignore
    (run_phases ?telemetry ?journal ~options:(repair_options st) st
       ~support:support' db'
       (List.map (fun (ph : Rule.program) -> { ph with Rule.facts = [] })
          st.phases));
  st.db <- db';
  st.support <- support';
  st.edb_order <- List.rev ordered;
  st.edb_stale <- 0

(* Saturated accumulators for a phase's seeded pass: every monotonic
   rule of the phase needs one, or {!Engine.run_delta} would re-count
   from empty groups (a wholesale rule's was reset to empty, which is
   exactly where its round 0 must start). The live [lg_state] tables
   are handed over directly — the engine then mutates them in place,
   which is exactly what keeps them current for the next maintain. *)
let agg_init_for st (m : phase_meta) =
  List.filter_map
    (fun rid ->
      Option.map
        (fun log -> (rid, log.lg_state))
        (Hashtbl.find_opt st.agg_tbl rid))
    (Array.to_list (phase_rule_ids m))

(* All-or-nothing batches: the (filtered) [retracts] leave the EDB
   here and [f] adds the inserts through [note]. When [f] raises
   mid-repair, those edits are undone and the session is marked torn,
   so the next batch re-chases instead of building on a half-repaired
   store. *)
let atomically st ~retracts f =
  let edb_order = st.edb_order and edb_stale = st.edb_stale in
  let dropped =
    List.filter_map
      (fun (p, f) ->
        let k = key p f in
        Option.map (fun e -> (k, e)) (Engine.ProvTbl.find_opt st.edb_set k))
      retracts
  in
  List.iter
    (fun (k, _) ->
      Engine.ProvTbl.remove st.edb_set k;
      st.edb_stale <- st.edb_stale + 1)
    dropped;
  let noted = ref [] in
  let note p fact =
    let fresh = edb_note st p fact in
    if fresh then noted := (p, fact) :: !noted;
    fresh
  in
  match f note with
  | stats ->
      if st.edb_stale > Engine.ProvTbl.length st.edb_set then edb_compact st;
      stats
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter
        (fun (p, f) -> Engine.ProvTbl.remove st.edb_set (key p f))
        !noted;
      List.iter (fun (k, e) -> Engine.ProvTbl.replace st.edb_set k e) dropped;
      st.edb_order <- edb_order;
      st.edb_stale <- edb_stale;
      st.torn <- true;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)

let maintain ?(telemetry = Kgm_telemetry.null)
    ?(journal = Kgm_telemetry.Journal.null) st ~inserts ~retracts =
  let t0 = Kgm_telemetry.Clock.now () in
  (* retractions only make sense against the EDB; a derived fact would
     simply be rederived *)
  let retracts =
    List.filter (fun (p, f) -> Engine.ProvTbl.mem st.edb_set (key p f)) retracts
  in
  if Journal.enabled journal then
    Journal.emit journal "maintain.start"
      [ ("inserts", J.Int (List.length inserts));
        ("retracts", J.Int (List.length retracts)) ];
  let updated =
    List.sort_uniq String.compare (List.map fst (inserts @ retracts))
  in
  let by_rechase note =
    let inserted =
      List.fold_left (fun n (p, f) -> if note p f then n + 1 else n) 0 inserts
    in
    rechase ~telemetry ~journal st;
    st.torn <- false;
    Kgm_telemetry.count telemetry "incremental.fallback";
    Kgm_telemetry.count telemetry ~by:inserted "incremental.inserts";
    Kgm_telemetry.count telemetry ~by:(List.length retracts)
      "incremental.retracts";
    let stats =
      { u_inserted = inserted; u_retracted = List.length retracts;
        u_cone = 0; u_rederived = 0; u_deleted = 0; u_refired = 0;
        u_derived = 0; u_rounds = 0; u_strata = 0; u_agg_groups = 0;
        u_fallback = true; u_elapsed_s = Kgm_telemetry.Clock.now () -. t0 }
    in
    if Journal.enabled journal then
      Journal.emit journal "maintain.end"
        [ ("fallback", J.Bool true);
          ("inserted", J.Int stats.u_inserted);
          ("retracted", J.Int stats.u_retracted);
          ("elapsed_s", J.Float stats.u_elapsed_s) ];
    stats
  in
  atomically st ~retracts @@ fun note ->
  if st.torn then by_rechase note
  else
  let plan = plan_update st updated in
  if updated <> [] && plan.pl_fallback then by_rechase note
  else begin
    let sup = st.support in
    let affected = plan.pl_affected in
    (* -------- wholesale strata: forced overdeletion -------- *)
    (* every derived fact of a marked stratum's head predicates is
       discarded (the rerun re-derives what still holds), and so is
       every null those discarded derivations invented *)
    let forced : unit Engine.ProvTbl.t = Engine.ProvTbl.create 64 in
    let forced_nulls : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let forced_seeds = ref [] in
    let wholesale_preds =
      List.sort_uniq String.compare
        (Hashtbl.fold (fun p () acc -> p :: acc) plan.pl_wpreds [])
    in
    List.iter
      (fun pred ->
        List.iter
          (fun f ->
            let k = key pred f in
            if not (Engine.ProvTbl.mem st.edb_set k) then begin
              Engine.ProvTbl.replace forced k ();
              forced_seeds := (pred, f) :: !forced_seeds;
              List.iter
                (fun (e : Engine.support_entry) ->
                  List.iter
                    (fun n ->
                      if not (Hashtbl.mem forced_nulls n) then begin
                        Hashtbl.replace forced_nulls n ();
                        match Hashtbl.find_opt sup.Engine.sup_null_facts n with
                        | Some r ->
                            List.iter
                              (fun pf -> forced_seeds := pf :: !forced_seeds)
                              !r
                        | None -> ()
                      end)
                    e.Engine.se_nulls)
                (Engine.support_entries sup pred f)
            end)
          (Database.facts st.db pred))
      wholesale_preds;
    let forced_seeds = List.rev !forced_seeds in
    (* -------- overdeletion cone (reverse reachability) -------- *)
    (* origin parent -> nulls it helped create, built once per batch *)
    let parent_nulls : (string * Value.t list, int list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    Hashtbl.iter
      (fun n parents ->
        List.iter
          (fun (p, f) ->
            let k = key p f in
            match Hashtbl.find_opt parent_nulls k with
            | Some r -> r := n :: !r
            | None -> Hashtbl.add parent_nulls k (ref [ n ]))
          parents)
      sup.Engine.sup_null_origin;
    (* contribution-parent and head indexes over the aggregate logs the
       update can reach (body or head predicate in the closure) *)
    (* the persistent contribution-parent / head indexes stand in for a
       per-batch build; entries into reset logs are skipped via
       [gl_defunct], wholesale groups via their recording id *)
    let live_entry (log, _, g) =
      (not g.gl_defunct)
      && not (Hashtbl.mem plan.pl_wholesale_rids log.lg_rid)
    in
    let touched = ref [] in
    let cone : unit Engine.ProvTbl.t = Engine.ProvTbl.create 256 in
    let cone_order = ref [] in
    let risk_nulls : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter (fun n () -> Hashtbl.replace risk_nulls n ()) forced_nulls;
    let queue = Queue.create () in
    List.iter (fun pf -> Queue.add pf queue) retracts;
    List.iter (fun pf -> Queue.add pf queue) forced_seeds;
    while not (Queue.is_empty queue) do
      let (p, f) = Queue.pop queue in
      let k = key p f in
      if Database.mem st.db p f && not (Engine.ProvTbl.mem cone k) then begin
        Engine.ProvTbl.add cone k ();
        cone_order := (p, f) :: !cone_order;
        (match Engine.ProvTbl.find_opt sup.Engine.sup_children k with
         | Some r -> List.iter (fun pf -> Queue.add pf queue) !r
         | None -> ());
        (* a dying contribution shrinks its group's total: the group's
           heads must be re-judged, support edges or not *)
        (match Engine.ProvTbl.find_opt st.idx_parent k with
         | Some r ->
             List.iter
               (fun ((log, gkey, g) as entry) ->
                 if live_entry entry && not g.gl_touched then begin
                   g.gl_touched <- true;
                   touched := (log, gkey, g) :: !touched;
                   List.iter
                     (fun pf -> Queue.add pf queue)
                     (List.rev g.gl_heads)
                 end)
               !r
         | None -> ());
        match Hashtbl.find_opt parent_nulls k with
        | None -> ()
        | Some ns ->
            List.iter
              (fun n ->
                if not (Hashtbl.mem risk_nulls n) then begin
                  Hashtbl.add risk_nulls n ();
                  match Hashtbl.find_opt sup.Engine.sup_null_facts n with
                  | Some r -> List.iter (fun pf -> Queue.add pf queue) !r
                  | None -> ()
                end)
              !ns
      end
    done;
    let cone_facts = List.rev !cone_order in
    (* -------- alive closure inside the cone -------- *)
    let alive : unit Engine.ProvTbl.t = Engine.ProvTbl.create 256 in
    let alive_nulls : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let null_alive n =
      (not (Hashtbl.mem risk_nulls n)) || Hashtbl.mem alive_nulls n
    in
    let fact_alive p f =
      let k = key p f in
      if Engine.ProvTbl.mem cone k then Engine.ProvTbl.mem alive k
      else Database.mem st.db p f
    in
    (* aggregate-rule entries are never deletion evidence: a surviving
       entry says nothing about the group's post-retraction total *)
    let entry_evidence (e : Engine.support_entry) =
      (not (Hashtbl.mem st.agg_tbl e.Engine.se_rule))
      && List.for_all (fun (p, f) -> fact_alive p f) e.Engine.se_parents
    in
    (* counting evidence: refold the group's surviving contributions
       (first surviving occurrence per dedup key, chronological — the
       order a re-chase would fold them) and re-check the conditions
       under the final total. Monotone, so a [true] caches. *)
    let group_passes (log : agg_log) gkey (g : group_log) =
      (not g.gl_touched) || g.gl_pass_true
      ||
      let prof = log.lg_profile in
      let refold = Database.KeyTbl.create 1 in
      List.iter
        (fun (ckey, w, parents) ->
          if List.for_all (fun (p, f) -> fact_alive p f) parents then
            ignore
              (Engine.agg_contribute prof.Analysis.ap_agg.Rule.op refold gkey
                 ckey (fun () -> w)))
        (List.rev g.gl_contribs);
      match Database.KeyTbl.find_opt refold gkey with
      | None | Some { Engine.acc = None; _ } -> false
      | Some { Engine.acc = Some total; _ } ->
          let lookup v =
            if v = prof.Analysis.ap_agg.Rule.result then Some total
            else
              let rec find gvs ks =
                match (gvs, ks) with
                | gv :: _, k :: _ when String.equal gv v -> Some k
                | _ :: gvs, _ :: ks -> find gvs ks
                | _ -> None
              in
              find prof.Analysis.ap_group_vars gkey
          in
          let ok =
            try
              List.for_all
                (fun e -> Expr.truthy_fn lookup e)
                prof.Analysis.ap_conds
            with Expr.Eval_error _ -> false
          in
          if ok then g.gl_pass_true <- true;
          ok
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (p, f) ->
          let k = key p f in
          if
            (not (Engine.ProvTbl.mem alive k))
            && not (Engine.ProvTbl.mem forced k)
          then begin
            let ok =
              Engine.ProvTbl.mem st.edb_set k
              || (List.for_all null_alive (Engine.fact_nulls f)
                  && (List.exists entry_evidence (Engine.support_entries sup p f)
                      ||
                      match Engine.ProvTbl.find_opt st.idx_head k with
                      | Some r ->
                          List.exists
                            (fun ((log, gkey, g) as entry) ->
                              live_entry entry && group_passes log gkey g)
                            !r
                      | None -> false))
            in
            if ok then begin
              Engine.ProvTbl.add alive k ();
              changed := true
            end
          end)
        cone_facts;
      Hashtbl.iter
        (fun n () ->
          if
            (not (Hashtbl.mem alive_nulls n))
            && not (Hashtbl.mem forced_nulls n)
          then begin
            let origin =
              Option.value ~default:[]
                (Hashtbl.find_opt sup.Engine.sup_null_origin n)
            in
            if List.for_all (fun (p, f) -> fact_alive p f) origin then begin
              Hashtbl.add alive_nulls n ();
              changed := true
            end
          end)
        risk_nulls
    done;
    let dead_facts =
      List.filter (fun (p, f) -> not (Engine.ProvTbl.mem alive (key p f))) cone_facts
    in
    let dead_set : unit Engine.ProvTbl.t = Engine.ProvTbl.create 64 in
    List.iter (fun (p, f) -> Engine.ProvTbl.replace dead_set (key p f) ()) dead_facts;
    let dead_nulls =
      Hashtbl.fold
        (fun n () acc -> if Hashtbl.mem alive_nulls n then acc else n :: acc)
        risk_nulls []
    in
    (* -------- delete + prune support and group logs -------- *)
    let dirty_groups = ref [] in
    let on_remove p f =
      match Engine.ProvTbl.find_opt st.idx_head (key p f) with
      | None -> ()
      | Some r ->
          List.iter
            (fun (_, _, g) ->
              let k = key p f in
              if
                (not g.gl_defunct) && Engine.ProvTbl.mem g.gl_head_set k
              then begin
                Engine.ProvTbl.remove g.gl_head_set k;
                if not g.gl_dirty then begin
                  g.gl_dirty <- true;
                  dirty_groups := g :: !dirty_groups
                end
              end)
            !r
    in
    let deleted = Database.remove_batch ~on_remove st.db dead_facts in
    List.iter
      (fun g ->
        g.gl_heads <-
          List.filter
            (fun (p, f) -> Engine.ProvTbl.mem g.gl_head_set (key p f))
            g.gl_heads;
        g.gl_dirty <- false)
      !dirty_groups;
    List.iter
      (fun (log, gkey, g) ->
        g.gl_contribs <-
          List.filter
            (fun (_, _, parents) ->
              not
                (List.exists
                   (fun (p, f) -> Engine.ProvTbl.mem dead_set (key p f))
                   parents))
            g.gl_contribs;
        (* resync the live accumulator with the survivors, in the
           chronological order a re-chase would fold them; a group left
           without survivors stays removed *)
        let op = log.lg_profile.Analysis.ap_agg.Rule.op in
        Database.KeyTbl.remove log.lg_state gkey;
        List.iter
          (fun (ckey, w, _) ->
            ignore
              (Engine.agg_contribute op log.lg_state gkey ckey (fun () -> w)))
          (List.rev g.gl_contribs))
      !touched;
    if Journal.enabled journal then
      Journal.emit journal "dred.cone"
        [ ("cone", J.Int (List.length cone_facts));
          ("rederived", J.Int (List.length cone_facts - deleted));
          ("deleted", J.Int deleted);
          ("risk_nulls", J.Int (Hashtbl.length risk_nulls));
          ("dead_nulls", J.Int (List.length dead_nulls));
          ("forced", J.Int (Engine.ProvTbl.length forced));
          ("wholesale_strata", J.Int plan.pl_n_marked);
          ("agg_groups", J.Int (List.length !touched)) ];
    List.iter
      (fun (p, f) ->
        let k = key p f in
        Engine.ProvTbl.remove sup.Engine.sup_entries k;
        (match Engine.ProvTbl.find_opt sup.Engine.sup_children k with
         | None -> ()
         | Some r ->
             List.iter
               (fun (q, g) ->
                 let kc = key q g in
                 if not (Engine.ProvTbl.mem dead_set kc) then
                   match Engine.ProvTbl.find_opt sup.Engine.sup_entries kc with
                   | None -> ()
                   | Some er ->
                       er :=
                         List.filter
                           (fun (e : Engine.support_entry) ->
                             not
                               (List.exists
                                  (fun (pp, pf) ->
                                    Engine.ProvTbl.mem dead_set (key pp pf))
                                  e.Engine.se_parents))
                           !er)
               !r;
             Engine.ProvTbl.remove sup.Engine.sup_children k))
      dead_facts;
    List.iter
      (fun n ->
        Hashtbl.remove sup.Engine.sup_null_origin n;
        Hashtbl.remove sup.Engine.sup_null_facts n)
      dead_nulls;
    (* wholesale derivations are void even when their fact survives as
       EDB: drop their entries (the rerun re-records what still holds)
       and reset their contribution logs *)
    List.iter
      (fun pred ->
        List.iter
          (fun f ->
            match Engine.ProvTbl.find_opt sup.Engine.sup_entries (key pred f) with
            | None -> ()
            | Some er ->
                er :=
                  List.filter
                    (fun (e : Engine.support_entry) ->
                      not (Hashtbl.mem plan.pl_wholesale_rids e.Engine.se_rule))
                    !er)
          (Database.facts st.db pred))
      wholesale_preds;
    Hashtbl.iter
      (fun rid (log : agg_log) ->
        if Hashtbl.mem plan.pl_wholesale_rids rid then begin
          Database.KeyTbl.iter
            (fun _ g -> g.gl_defunct <- true)
            log.lg_groups;
          Database.KeyTbl.reset log.lg_groups;
          Database.KeyTbl.reset log.lg_state
        end)
      st.agg_tbl;
    (* suppressed firings: wholesale rules re-attempt everything in
       their rerun, so their records just drop; elsewhere, drop the
       ones whose body died and re-attempt the ones whose witness image
       died (chronological recording order, so the seed order — and
       with it null numbering — is deterministic) *)
    let refire_parents = ref [] in
    let refired = ref 0 in
    let kept =
      List.filter
        (fun (sf : Engine.suppressed_firing) ->
          let sf_key =
            ( sf.Engine.sf_rule,
              List.map (fun (p, f) -> (p, Array.to_list f)) sf.Engine.sf_parents )
          in
          if Hashtbl.mem plan.pl_wholesale_rids sf.Engine.sf_rule then begin
            Hashtbl.remove sup.Engine.sup_suppressed_keys sf_key;
            false
          end
          else
            let parent_dead =
              List.exists
                (fun (p, f) -> Engine.ProvTbl.mem dead_set (key p f))
                sf.Engine.sf_parents
            in
            let image_dead =
              List.exists
                (fun (p, f) -> Engine.ProvTbl.mem dead_set (key p f))
                sf.Engine.sf_image
            in
            if parent_dead then begin
              Hashtbl.remove sup.Engine.sup_suppressed_keys sf_key;
              false
            end
            else if image_dead then begin
              Hashtbl.remove sup.Engine.sup_suppressed_keys sf_key;
              incr refired;
              List.iter
                (fun pf -> refire_parents := pf :: !refire_parents)
                (List.rev sf.Engine.sf_parents);
              false
            end
            else true)
        sup.Engine.sup_suppressed
    in
    sup.Engine.sup_suppressed <- kept;
    (* sup_suppressed is in reverse recording order; refire_parents was
       consed while walking it, so it is now chronological *)
    let refire_parents = !refire_parents in
    (* -------- inserts -------- *)
    let seed_order = ref [] in
    let seed_tbl : (string, Database.fact list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let seen_seed : unit Engine.ProvTbl.t = Engine.ProvTbl.create 64 in
    let push_seed p f =
      let k = key p f in
      if not (Engine.ProvTbl.mem seen_seed k) then begin
        Engine.ProvTbl.add seen_seed k ();
        match Hashtbl.find_opt seed_tbl p with
        | Some r -> r := f :: !r
        | None ->
            Hashtbl.add seed_tbl p (ref [ f ]);
            seed_order := p :: !seed_order
      end
    in
    let inserted = ref 0 in
    List.iter
      (fun (p, f) ->
        if note p f then begin
          incr inserted;
          if Database.add st.db p f then push_seed p f
          (* else: the fact was already derived; it is now also
             extensional, but its consequences already exist *)
        end)
      inserts;
    List.iter
      (fun (p, f) -> if Database.mem st.db p f then push_seed p f)
      refire_parents;
    let seed =
      List.rev_map
        (fun p -> (p, List.rev !(Hashtbl.find seed_tbl p)))
        !seed_order
    in
    (* -------- one seeded engine pass per relevant phase: plain strata
       start from the seeds, wholesale strata re-derive on the
       maintained lower strata, and every later stratum also sees what
       the pass itself derived -------- *)
    let derived = ref 0 and rounds = ref 0 in
    if seed <> [] || plan.pl_n_marked > 0 then begin
      (* later phases must also see what earlier phases of this same
         batch derived, exactly as they would in a fresh pipeline *)
      let extra = ref [] in
      let reach = Hashtbl.copy affected in
      List.iter (fun (p, _) -> Hashtbl.replace reach p ()) seed;
      let on_new p f =
        extra := (p, f) :: !extra;
        Hashtbl.replace reach p ()
      in
      List.iteri
        (fun i (ph : Rule.program) ->
          let m = st.metas.(i) in
          let marked = plan.pl_marked.(i) in
          let phase_seed =
            seed @ List.rev_map (fun (p, f) -> (p, [ f ])) !extra
          in
          (* a phase the update cannot reach derives nothing new: skip
             it instead of scanning every rule against the seeds *)
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
              Engine.run_delta ~options:(repair_options st) ~support:sup
                ~telemetry ~journal ~on_new ~on_agg:(record_agg_event st)
                ~rule_ids:(phase_rule_ids m) ~agg_init:(agg_init_for st m)
                ~wholesale:(Array.get marked) ph st.db ~seed:phase_seed
            in
            derived := !derived + stats.Engine.new_facts;
            rounds := !rounds + stats.Engine.rounds
          end)
        st.phases
    end;
    let agg_groups = List.length !touched in
    List.iter
      (fun (_, _, g) ->
        g.gl_touched <- false;
        g.gl_pass_true <- false)
      !touched;
    let retracted = List.length retracts in
    let cone_n = List.length cone_facts in
    let stats =
      { u_inserted = !inserted; u_retracted = retracted; u_cone = cone_n;
        u_rederived = cone_n - deleted; u_deleted = deleted;
        u_refired = !refired; u_derived = !derived; u_rounds = !rounds;
        u_strata = plan.pl_n_marked; u_agg_groups = agg_groups;
        u_fallback = false;
        u_elapsed_s = Kgm_telemetry.Clock.now () -. t0 }
    in
    Kgm_telemetry.count telemetry ~by:stats.u_inserted "incremental.inserts";
    Kgm_telemetry.count telemetry ~by:stats.u_retracted "incremental.retracts";
    Kgm_telemetry.count telemetry ~by:stats.u_cone "incremental.cone";
    Kgm_telemetry.count telemetry ~by:stats.u_rederived "incremental.rederived";
    Kgm_telemetry.count telemetry ~by:stats.u_deleted "incremental.deleted";
    Kgm_telemetry.count telemetry ~by:stats.u_refired "incremental.refired";
    Kgm_telemetry.count telemetry ~by:stats.u_derived "incremental.derived";
    Kgm_telemetry.count telemetry ~by:stats.u_rounds "incremental.rounds";
    Kgm_telemetry.count telemetry ~by:stats.u_strata "incremental.strata";
    Kgm_telemetry.count telemetry ~by:stats.u_agg_groups
      "incremental.agg_groups";
    if Journal.enabled journal then
      Journal.emit journal "maintain.end"
        [ ("fallback", J.Bool false);
          ("inserted", J.Int stats.u_inserted);
          ("retracted", J.Int stats.u_retracted);
          ("cone", J.Int stats.u_cone);
          ("rederived", J.Int stats.u_rederived);
          ("deleted", J.Int stats.u_deleted);
          ("refired", J.Int stats.u_refired);
          ("derived", J.Int stats.u_derived);
          ("rounds", J.Int stats.u_rounds);
          ("strata", J.Int stats.u_strata);
          ("agg_groups", J.Int stats.u_agg_groups);
          ("elapsed_s", J.Float stats.u_elapsed_s) ];
    stats
  end

(* ------------------------------------------------------------------ *)
(* Canonical form: null ids are process-global and never rewind, so a
   maintained database and a from-scratch re-chase carry different
   absolute ids for what is the same labeled null. Renumber them
   densely in first-occurrence order over a sort that masks nulls by
   their within-fact repetition pattern — an order computable without
   knowing the renaming. *)

let rec mask_value seen v =
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
  | Value.List l -> Value.List (List.map (mask_value seen) l)
  | v -> v

let local_pattern (f : Database.fact) =
  let seen = Hashtbl.create 4 in
  List.map (mask_value seen) (Array.to_list f)

let compare_vlist = List.compare Value.compare

let canonical_facts dbase =
  let rename : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec canon v =
    match v with
    | Value.Null k ->
        let i =
          match Hashtbl.find_opt rename k with
          | Some i -> i
          | None ->
              let i = Hashtbl.length rename in
              Hashtbl.add rename k i;
              i
        in
        Value.Null i
    | Value.List l -> Value.List (List.map canon l)
    | v -> v
  in
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
  let rec has_null = function
    | Value.Null _ -> true
    | Value.List l -> List.exists has_null l
    | _ -> false
  in
  let fact_has_null f = Array.exists has_null f in
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
