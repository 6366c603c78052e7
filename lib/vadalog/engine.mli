(** The reasoning engine: a chase over (warded) Datalog± programs with
    stratified negation, stratified and monotonic aggregation, linker
    Skolem functors and semi-naive evaluation (paper, Sec. 4).

    Semantics: for each satisfied body φ(t,t'), a tuple t'' of constants
    and fresh labeled nulls is invented so that ψ(t,t'') holds. With the
    default options, an existential head is only instantiated when no
    homomorphic image of it already exists — where labeled nulls match
    up to consistent renaming, the Vadalog System's termination strategy
    for warded programs (so chases like
    [mgr(X,M) :- emp(X). emp(M) :- mgr(X,M).] terminate). *)

type options = {
  semi_naive : bool;
      (** semi-naive (delta-driven) fixpoint; [false] = naive
          re-evaluation, kept for the ABL-2 ablation *)
  restricted_chase : bool;
      (** check head satisfaction before inventing nulls; [false] =
          oblivious chase (ABL-1), which diverges on existential
          recursion — pair it with a [max_facts] budget *)
  reorder_body : bool;
      (** opt-in rewrite of every rule body into the planner's greedy
          order ({!Planner.plan_rule} without a delta literal, from the
          cardinalities at run start), applied once; rules with
          aggregates keep their written order. Off by default because
          the rewrite is visible: the written order defines emission
          order, so it changes fact insertion order and labeled-null
          numbering (the fixpoint is the same up to null renaming).
          ABL-4: it rescues a cross-product-first body by two to three
          orders of magnitude and costs the Company-KG materialization
          nothing *)
  provenance : bool;
      (** retain the derivation support graph after the chase and return
          it in {!stats.support}, so facts can be explained
          ({!explain_tree}) without the caller allocating a
          {!Support.t} up front. Passing [?support] explicitly implies it. This is
          the one way to explain a fact. Off by default: recording costs
          memory proportional to the number of derivations (see
          DESIGN.md §11 for the cost model) *)
  planner : bool;
      (** cost-aware chase planning (on by default). Non-recursive
          strata (no dependency edge inside their SCC group) complete
          after round 0, so their empty delta round is skipped; in delta
          rounds each (rule, delta literal) body is re-planned at the
          round boundary from live predicate cardinalities and evaluated
          most-selective-first, probing the delta through a hash index.
          Pure scheduling: the merge sorts complete matches back into
          the written-order emission sequence on fact insertion
          sequences, so derived facts, their insertion order,
          labeled-null numbering and per-rule firing counters are
          bit-for-bit identical with the planner off, at every [jobs]
          value — only probe counts and wall time change. Unlike
          [reorder_body] (a static, semantics-visible rewrite of the
          written order), the planner never changes observable output. *)
  max_facts : int;   (** hard budget; exceeding it raises a Reason error *)
  max_rounds : int;
  jobs : int;
      (** worker domains for semi-naive delta rounds (1 = fully
          sequential), started at the first round with more than one
          work item. Body matching runs on a frozen snapshot of the
          store; firing (dedup, chase check, null invention, support)
          stays sequential in a schedule-independent order, so results —
          including labeled-null numbering and per-rule statistics — are
          identical for every jobs value *)
  deadline_s : float option;
      (** wall-clock budget for the run, measured on the monotonic clock
          from the moment {!run} starts; checked at round boundaries and
          polled by pool workers per work item *)
  on_limit : [ `Raise | `Partial ];
      (** what to do when a budget ([max_facts], [max_rounds],
          [deadline_s]) trips or the cancellation token fires:
          [`Raise] (default) raises a [Reason] error as before;
          [`Partial] stops cleanly and returns the facts derived so far,
          tagged with the limiting resource in {!stats.stopped}. The
          partial database is a deterministic prefix of the fixpoint —
          identical for every [jobs] value *)
}

val default_jobs : int
(** [KGM_JOBS] from the environment when it parses as a positive
    integer, else 1. *)

val default_options : options

(** {1 Limits and resilience} *)

type limit = [ `Cancelled | `Deadline | `Facts | `Rounds ]
(** The resource that stopped a run early. *)

val limit_name : limit -> string
(** Short stable name ("cancelled", "deadline", "facts", "rounds") used
    in reports and telemetry counters ([engine.stopped.<name>]). *)

type checkpoint = {
  ck_dir : string;    (** snapshot directory (created on first write) *)
  ck_every : int;     (** write a snapshot every [ck_every] completed
                          rounds (also on any clean limit stop) *)
  ck_label : string;  (** distinguishes concurrent chases sharing a
                          directory, e.g. materialization phases *)
  ck_keep : int;      (** generations retained after each successful
                          write ({!Kgm_resilience.Snapshot.gc});
                          [0] keeps everything *)
}

val default_checkpoint_every : int

val checkpoint : ?every:int -> ?keep:int -> ?label:string -> string -> checkpoint
(** [checkpoint dir] — [every] defaults to {!default_checkpoint_every}
    (clamped to >= 1), [keep] to [0] (unbounded), [label] to
    ["chase"]. *)

val latest_checkpoint : ?label:string -> string -> string option
(** Highest-round snapshot file under a checkpoint directory, if any —
    the path to hand to {!run}'s [resume_from]. *)

(** {1 Statistics}

    Per-rule chase instrumentation is always on (the counters are one
    int bump per event); spans and histograms are only recorded when an
    enabled {!Kgm_telemetry} collector is passed to {!run}. *)

type rule_stats = {
  rs_id : int;             (** position of the rule in the program *)
  rs_rule : string;        (** pretty-printed rule *)
  rs_label : string;       (** head predicates, e.g. ["controls/2"] *)
  rs_firings : int;        (** facts this rule added to the database *)
  rs_matches : int;        (** complete body matches (head instantiations
                               attempted). A don't-care literal — its
                               unbound variables occur nowhere else in
                               the rule — contributes its first witness
                               only, unless the pass records support or
                               a later literal reads, from the live
                               store, a predicate of the current
                               stratum: the other witnesses could only
                               re-fire the same head (DESIGN.md §8). So
                               this counts the distinct head
                               instantiations such literals lead to, and
                               differs between support-recording passes
                               and plain ones *)
  rs_probes : int;         (** candidate facts examined while joining
                               (a probe a first witness stops counts
                               what it visited) *)
  rs_nulls : int;          (** labeled nulls invented *)
  rs_chase_hits : int;     (** restricted-chase homomorphism checks that
                               found an image (invention suppressed); as
                               [rs_matches], without the re-checks of
                               skipped don't-care witnesses. The
                               candidates the checks tried are the
                               run-wide telemetry counter
                               [engine.chase.examined] *)
  rs_chase_misses : int;   (** checks that found none (nulls invented) *)
  rs_time_s : float;       (** monotonic time evaluating the rule *)
}

(** {1 Monotonic-aggregate state}

    A monotonic aggregate keeps one accumulator per group across
    rounds; {!run} and {!run_delta} fold into the caller's tables when
    given [?agg_init]. Counting maintenance owns those tables and reads
    everything else about a group from the store: {!list_matches} lists
    the matches that feed it. Group keys and accumulators are values;
    the facts a match consumed are interned. *)

type group_state = {
  seen : unit Database.KeyTbl.t;  (** contributor/dedup keys *)
  mutable acc : Kgm_common.Value.t option;  (** running accumulator *)
}
(** Per-group accumulator of a monotonic aggregate, exactly as the
    engine keeps it across rounds (and checkpoints it). *)

type agg_state = group_state Database.KeyTbl.t
(** Group key → accumulator, for one aggregate rule. *)

val agg_contribute :
  Rule.agg_op -> agg_state -> Kgm_common.Value.t list ->
  Kgm_common.Value.t list -> (unit -> Kgm_common.Value.t) ->
  (group_state * Kgm_common.Value.t) option
(** [agg_contribute op state gkey ckey weight] — one contribution,
    exactly as the engine folds it: find or create group [gkey] of
    [state], then, unless [ckey] is already in its [seen] set, add it
    and fold [weight ()] into the accumulator. Returns the group and
    the folded weight, or [None] for a seen key ([weight] is then not
    called). A maintenance layer refolds a group from its matches with
    it. *)

type agg_match = {
  am_group : Kgm_common.Value.t list;  (** group key *)
  am_key : Kgm_common.Value.t list;  (** contributor dedup key *)
  am_weight : Kgm_common.Value.t;  (** the weight this match would fold *)
  am_parents : Support.fact list;
      (** the positive body facts matched before the aggregate literal,
          as the store holds them *)
}
(** One match of a monotonic aggregate rule's prefix — the literals
    before its aggregate literal. *)

val negative_weight : Kgm_common.Value.t -> bool
(** Whether a numeric weight is below zero: a [sum] that folds one is
    recorded in {!stats.negative_sums}. *)

type agg_rule
(** A monotonic aggregate rule compiled against a store's dictionary. *)

val agg_rule : Database.t -> Rule.rule -> agg_rule
(** [agg_rule db r] compiles [r] for {!agg_matches} over any store
    sharing [db]'s dictionary. Raises [Invalid_argument] when [r] has
    no monotonic aggregate. *)

type lister
(** One walk state and environment over one store, reused by every
    listing made through it: a maintenance batch makes one and lists
    through it alone. Not shared between domains. *)

val lister : Database.t -> lister

val list_matches :
  lister -> agg_rule ->
  [ `Fact of Support.fact | `Group of Kgm_common.Value.t option list ] ->
  agg_match list
(** [list_matches l r source] lists the prefix matches of [r]'s
    monotonic aggregate literal over [l]'s store with the engine's own
    body walker, in its (written, insertion) order: [`Fact (p, f)] —
    the matches using the interned fact [f] at some positive prefix
    literal (a match using it at two is listed twice); [`Group key] —
    the matches of the groups whose key agrees with [key] (a value, or
    [None] for any, per group variable; all values name one group).
    Nothing is folded or fired, and no fact is resolved: only the group
    key, the contributor key and the weight are values. Under
    [sum(w, <z>)] a group folds the {e first} match per contributor key
    it meets, so the list may hold matches the group never folded.
    Raises [Invalid_argument] when the store does not share the
    dictionary [r] was compiled against. *)

val agg_matches :
  Database.t -> agg_rule ->
  [ `Fact of string * Database.fact
  | `Group of Kgm_common.Value.t option list ] ->
  agg_match list
(** {!list_matches} through a fresh {!lister} of [db], for a fact given
    by its values: one whose values were never interned has no
    matches. *)

val head_groups :
  lister -> agg_rule -> Support.fact -> Kgm_common.Value.t list list
(** The keys of the groups that ground a head atom of the rule to the
    interned fact, sorted: read off the head when it binds every group
    variable, else from {!list_matches} with the values it binds. *)

val agg_head_groups :
  Database.t -> agg_rule -> string * Database.fact ->
  Kgm_common.Value.t list list
(** {!head_groups} through a fresh {!lister}, for a fact given by its
    values. *)

type stats = {
  rounds : int;      (** fixpoint rounds across all strata *)
  new_facts : int;   (** facts added by this run *)
  elapsed_s : float; (** monotonic wall time of the run *)
  delta_sizes : int list;
      (** facts derived per semi-naive round, chronological across
          strata *)
  nulls_invented : int;
  chase_hits : int;
  chase_misses : int;
  per_rule : rule_stats list;  (** program order *)
  stopped : limit option;
      (** [Some l] when the run stopped early under [on_limit:`Partial]:
          the database holds a deterministic prefix of the fixpoint and
          [l] names the limiting resource. [None] for complete runs. *)
  support : Support.t option;
      (** the derivation support recorded during the run — present when
          [options.provenance] was on or a [?support] was passed (the
          caller's support is returned as-is) *)
  negative_sums : int list;
      (** recording ids of the monotonic [sum] rules that folded a
          negative weight during the run, sorted: their totals are no
          longer monotone in their contributions *)
}

val merge_stats : stats -> stats -> stats
(** Componentwise sum/concatenation — for reporting over multi-pass
    runs (e.g. Algorithm 2's two phases). The first non-[None]
    [support] wins; [negative_sums] is the sorted union. *)

val pp_rule_table : Format.formatter -> stats -> unit
(** Human-readable per-rule metrics table, busiest rules first; rules
    with no activity are folded into one line. *)

(** {1 Fact-level explanation}

    Bounded derivation trees over a recorded {!Support.t}: why does this
    fact hold? At each derived fact the {e first-recorded} derivation
    is expanded — the merge order of the chase is schedule-independent
    and snapshots preserve entry lists verbatim, so the tree (and its
    rendering) is bit-identical across [jobs] values, planner on/off,
    and checkpoint/resume. The support holds interned facts; the tree
    resolves them through the support's dictionary as it is built, and
    orders each derivation's premises by value
    ({!Support.compare_value}). *)

type explain_tree = {
  et_pred : string;
  et_fact : Database.fact;
  et_depth : int;  (** recursion depth of this node, root = 0 *)
  et_node : explain_node;
}

and explain_node =
  | Ground
      (** no recorded derivation: extensional, or support was off *)
  | Truncated  (** [max_depth] reached; the fact does have derivations *)
  | Cycle      (** the fact is already on the current path *)
  | Derived of explain_deriv

and explain_deriv = {
  ed_rule_id : int;
  ed_rule : string;  (** pretty-printed firing rule *)
  ed_subst : (string * Kgm_common.Value.t) list;
      (** head-variable substitution grounding the head to the fact,
          existentials bound to the invented nulls; sorted by name *)
  ed_nulls : int list;  (** labels of the nulls this derivation invented *)
  ed_premises : explain_tree list;  (** in value order *)
}

val default_explain_depth : int
(** 32 — deep enough for the financial use-cases, shallow enough that
    cyclic ownership graphs stay readable. *)

val explain_tree :
  ?max_depth:int -> Support.t -> Rule.program -> string -> Database.fact ->
  explain_tree
(** [explain_tree sup program pred fact] — the bounded derivation tree
    of [fact], found through the support's dictionary. A fact with no
    recorded derivation (extensional, simply absent, or holding a value
    never interned) explains as {!Ground}; recursion stops at
    [max_depth] ({!Truncated}) and on back-edges ({!Cycle}). [program]
    must be the program that was chased — rule ids index into it to
    render rules and recover head substitutions. *)

val pp_explain_tree : Format.formatter -> explain_tree -> unit
(** Indented rendering: one line per fact with the firing rule, then
    the substitution, invented nulls and premises nested below. *)

val explain_tree_to_string : explain_tree -> string

(** {1 Running programs} *)

type compiled
(** A program compiled for one dictionary: checked for safety,
    stratified, its rules prepared against the dictionary (constants
    interned), grouped by stratum, labelled and printed for
    {!rule_stats}. Everything a pass needs before it looks at a fact. *)

val compile :
  ?options:options -> ?rule_ids:int array -> Database.t -> Rule.program ->
  compiled
(** [compile db program] compiles [program]'s rules for [db]'s
    dictionary (shared by every copy of [db]), interning their
    constants. [rule_ids] as in {!run}; with [options.reorder_body] the
    bodies are reordered from [db]'s cardinalities now. Raises
    [Kgm_error.Error] [Validate] on unsafe or unstratifiable programs. *)

val rule_strata : compiled -> int array
(** Per rule (positional), the stratum it is evaluated in
    ({!Analysis.rule_strata}). *)

val n_strata : compiled -> int

val run :
  ?options:options -> ?support:Support.t ->
  ?telemetry:Kgm_telemetry.t -> ?journal:Kgm_telemetry.Journal.t ->
  ?cancel:Kgm_resilience.Token.t ->
  ?checkpoint:checkpoint -> ?resume_from:string ->
  ?rule_ids:int array -> ?agg_init:(int * agg_state) list ->
  ?pool:Kgm_pool.pool -> Rule.program -> Database.t -> stats
(** Load the program's facts into the database, {!compile} the
    program for it and chase its rules to fixpoint, stratum by stratum.

    [rule_ids] overrides the {e recording} id of each rule
    (positional): support entries, suppressed firings and aggregate
    state are keyed by [rule_ids.(i)] instead of [i]. Maintenance
    layers chasing one phase of a larger pipeline pass the rules'
    pipeline-wide ids so the shared support stays unambiguous.
    [agg_init] hands the run monotonic-aggregate tables (keyed by
    recording id) to fold into, in place, instead of fresh ones — a
    maintenance layer passes the empty tables it keeps for the
    session. [pool] runs the rounds' work items on the caller's pool
    (not shut down here; its size need not be [options.jobs], results
    are the same at every size) instead of one the run creates and
    shuts down — a long-lived caller running many short passes keeps
    its domains started. Raises [Kgm_error.Error]:
    [Validate] on unsafe or unstratifiable programs, [Reason] on
    exceeded budgets (with the offending rule and round — and the final
    checkpoint path, when one was written — in the error context)
    unless [on_limit] is [`Partial].

    [cancel] is polled cooperatively (round boundaries, pool workers):
    cancelling it stops the run at the previous round boundary, as
    [`Cancelled]. [checkpoint] enables periodic snapshots of the
    complete semi-naive state; [resume_from] (a snapshot path, see
    {!latest_checkpoint}) restarts a run from one. A resumed run is
    bit-for-bit equivalent to the uninterrupted one — facts, per-
    predicate insertion order, labeled-null numbering and per-rule
    counters — at every [jobs] value. The snapshot must have been
    written by the same program text (fingerprint-checked) under the
    same checkpoint label.

    [telemetry] defaults to {!Kgm_telemetry.null}, a no-op; an enabled
    collector additionally records an [engine.run] span, one span per
    stratum and per fixpoint round, one [rule:<head>] span per rule
    evaluation that derived facts, an [engine.rule_eval_s] latency
    histogram and [engine.*] counters (plus [resilience.*] and
    [engine.stopped.*] counters when checkpoints, retries or limit
    stops occurred); [engine.pool.spawned] counts the domains the run
    started, 0 on a passed pool that already runs its domains.

    [journal] defaults to {!Kgm_telemetry.Journal.null}; an enabled
    journal receives the chase flight record — [run.start],
    [round.start]/[round.end] (with delta and database sizes),
    [rule.batch] per rule firing batch, [plan] per planner decision,
    [chunk] per worker work item, [worker.retry], [checkpoint.write]/
    [checkpoint.fail], [limit.stop] and [run.end] — as JSONL events
    (see {!Kgm_telemetry.Journal}). Pure observation: journalling
    never changes what is derived. *)

val pp_plan_report :
  ?options:options -> Format.formatter -> Rule.program -> Database.t -> unit
(** Explain what the planner would decide for [program] over the
    current contents of the database (load the input facts first —
    cardinalities are read live): the strata in execution order with
    their recursion flags, and for each rule of a recursive stratum the
    join order chosen for every in-stratum delta literal. Diagnostic
    only; nothing is evaluated and the database is not modified. *)

val run_program :
  ?options:options -> ?support:Support.t ->
  ?telemetry:Kgm_telemetry.t -> ?journal:Kgm_telemetry.Journal.t ->
  ?cancel:Kgm_resilience.Token.t ->
  ?checkpoint:checkpoint -> ?resume_from:string ->
  Rule.program -> Database.t * stats
(** [run] on a fresh database. *)

val run_delta :
  ?options:options -> ?support:Support.t ->
  ?telemetry:Kgm_telemetry.t -> ?journal:Kgm_telemetry.Journal.t ->
  ?cancel:Kgm_resilience.Token.t ->
  ?on_new:(string -> Database.ifact -> unit) ->
  ?agg_init:(int * agg_state) list -> ?pool:Kgm_pool.pool ->
  ?wholesale:(int -> bool) -> compiled -> Database.t ->
  seed:(string * Database.ifact list) list -> stats
(** A seeded entry into {!run}'s chase loop, for incremental
    maintenance, over a program {!compile}d once for [db]'s dictionary
    (else [Invalid_argument]) — a session compiles each phase once and
    passes it to every pass. Precondition: [db] already holds a chase
    fixpoint of the program plus a batch of new extensional facts, and
    [seed] lists exactly the facts that are new since that fixpoint, as
    interned facts (already present in [db]; they are {e not}
    re-inserted, and the program's fact list is ignored).

    The loop is {!run}'s; only each stratum's first round differs. A
    stratum [s] with [wholesale s] (default: none) starts with round 0,
    a full evaluation of its rules over the store — a maintenance layer
    names the strata whose derived facts it discarded (stratified
    negation or aggregation in the update's reach). Every other stratum
    starts with a delta round over the seeds plus whatever earlier
    strata of this same pass derived. Later rounds range over the
    stratum's own delta either way. By semi-naive completeness this
    derives precisely the consequences of the seeds, at a cost
    proportional to the delta rather than the database.

    Derived facts, their insertion order and labeled-null numbering are
    identical at every [jobs] value and with the planner on or off: a
    seeded pass always plans (delta-first plans and their hash indexes)
    and always stops a non-recursive stratum after one round, whatever
    [options.planner] says — written-order plans probe the whole
    closure once per seed fact, and planning is pure scheduling, so
    [options.planner] only ablates {!run}. [on_new] observes every
    fact the pass adds, interned; recording ids are the ones the
    program was compiled with; [agg_init] as in
    {!run}, but here the tables are the saturated accumulators of the
    chase being maintained, so new contributions extend the old totals
    — required whenever the program contains a monotonic aggregate
    outside the wholesale strata, otherwise the pass would re-count
    from empty groups; [pool] as in {!run}. Checkpointing is not
    supported here ({!Incremental} states are cheap to rebuild from a
    fresh chase). The journal's [run.start]/[run.end] carry
    [mode = "delta"] and the seed count; the span is
    [engine.run_delta]. *)

val query : Database.t -> string -> Database.fact list
(** Facts of a predicate (insertion order). *)

val outputs : Rule.program -> Database.t -> (string * Database.fact list) list
(** The facts of every predicate named by an [@output("pred")]
    annotation, in annotation order. *)
