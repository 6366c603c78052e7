(** Incremental maintenance of a chased materialization.

    A {!state} couples a database with the programs that chased it, the
    {!Engine.support} recorded while chasing, and the current
    extensional database (EDB): the facts that were {e loaded}, as
    opposed to derived. {!maintain} then repairs the materialization in
    place under a batch of extensional inserts and retractions:

    - inserts seed the engine's delta machinery ({!Engine.run_delta}),
      reusing the planner's delta-first plans and the pool's parallel
      rounds — only consequences of the new facts are evaluated;
    - retractions use delete-and-rederive (DRed): the downward closure
      of the retracted facts (the {e overdeletion cone}) is walked over
      the support's reverse edges, an alive-set fixpoint inside the
      cone rederives every fact that still has an all-alive derivation
      from the surviving EDB, and the rest is deleted. A labeled null
      whose creating derivation dies takes every fact carrying it down
      too. Restricted-chase firings that were suppressed because their
      image already existed are re-attempted when that image dies.

    Maintenance is {e stratum-aware}: each phase is stratified once
    ({!Analysis.stratify}) and non-monotone constructs only poison the
    strata that contain them. A stratum the update reaches through
    stratified negation or [Stratified] aggregation is marked
    {e wholesale} — its derived facts are force-deleted through the
    cone and the stratum is re-derived by a full round inside the
    phase's one seeded pass ({!Engine.run_delta} with [?wholesale]),
    on top of the already-maintained lower strata, never from scratch
    — while every other stratum keeps the DRed path. [Monotonic] aggregates
    (the paper's [msum]) are maintained by {e counting}: the chase
    records every distinct contribution (weight and body parents, even
    sub-threshold ones) per group, so a retraction refolds the group's
    surviving contributions and only threshold-crossing head facts
    cascade. A full re-chase ([u_fallback]) survives only for updates
    the machinery genuinely cannot localize: a non-semi-naive engine,
    a monotonic aggregate outside {!Analysis.monotonic_profiles}, or
    an affected non-counting monotonic rule (order-sensitive
    accumulators such as [pack] running totals, or a [sum] that
    recorded a negative weight).

    The repaired database is equal — same facts, labeled nulls
    numbered identically up to the canonical renaming of
    {!canonical_facts} — to a from-scratch chase of the updated EDB, at
    every [jobs] value and with the planner on or off. *)

type state
(** A maintained materialization. Mutable: {!maintain} repairs it in
    place. The underlying database is shared, not copied — reading it
    through {!db} after a [maintain] sees the repaired facts, but note
    that a fallback re-chase replaces the database object itself, so
    always re-fetch it through {!db} rather than caching it. *)

type update_stats = {
  u_inserted : int;     (** extensional facts actually added (not dups) *)
  u_retracted : int;    (** extensional facts actually removed *)
  u_cone : int;         (** size of the overdeletion cone *)
  u_rederived : int;    (** cone facts saved by an alternative derivation *)
  u_deleted : int;      (** facts removed from the database *)
  u_refired : int;      (** suppressed firings re-attempted *)
  u_derived : int;      (** facts added by the seeded semi-naive pass *)
  u_rounds : int;       (** rounds of the seeded pass *)
  u_strata : int;       (** strata re-derived wholesale (negation /
                            stratified aggregation in the update's
                            reach); 0 = pure DRed + counting *)
  u_agg_groups : int;   (** monotonic-aggregate groups touched by the
                            overdeletion cone (counting maintenance) *)
  u_fallback : bool;    (** the batch was served by a full re-chase *)
  u_elapsed_s : float;  (** monotonic wall time of the whole update *)
}

val chase :
  ?options:Engine.options -> ?telemetry:Kgm_telemetry.t ->
  ?journal:Kgm_telemetry.Journal.t ->
  ?db:Database.t -> Rule.program -> state * Engine.stats
(** Chase [program] (against [db] when given, a fresh database
    otherwise) with support recording on, and return the maintainable
    state. Facts already in [db] plus the program's fact list form the
    initial EDB. *)

val chase_phases :
  ?options:Engine.options -> ?telemetry:Kgm_telemetry.t ->
  ?journal:Kgm_telemetry.Journal.t ->
  db:Database.t -> Rule.program list -> state * Engine.stats
(** Like {!chase} for a multi-phase pipeline (e.g. the two materialize
    phases): the phases are chased in order against the same database
    and recorded into one shared support, and {!maintain} replays them
    in the same order. The phase list must be non-empty. *)

val db : state -> Database.t
(** The current materialization. Re-fetch after every {!maintain}. *)

val phases : state -> Rule.program list
(** The chased pipeline, in replay order. *)

val support : state -> Engine.support
(** The live support (provenance edges) backing DRed. Replaced by a
    fallback re-chase, so re-fetch after every {!maintain} — e.g. to
    explain a fact against the current materialization. *)

val edb_facts : state -> (string * Database.fact) list
(** The current extensional facts, each once, in load order: a fact
    retracted and later re-inserted sits at its latest insertion — where
    maintenance puts it in the store. *)

val swap_db : state -> Database.t -> unit
(** [swap_db st twin] hands the session a twin of its database: a store
    holding the same facts in the same per-predicate order (sequence
    numbers may differ), e.g. one brought up to date by
    {!Database.replay}. The support, the EDB and the aggregate logs
    refer to facts by value, so they carry over unchanged; the caller
    owns the store taken out. Nothing checks that [twin] is a twin. *)

val maintain :
  ?telemetry:Kgm_telemetry.t -> ?journal:Kgm_telemetry.Journal.t -> state ->
  inserts:(string * Database.fact) list ->
  retracts:(string * Database.fact) list -> update_stats
(** Apply a batch of extensional updates and repair the
    materialization. Retractions of facts not currently extensional are
    ignored (a derived fact cannot be retracted — it would be
    rederived); inserts already extensional are ignored. Retractions
    are applied before inserts, so a batch may move a fact. Each phase
    the batch can reach gets exactly one {!Engine.run_delta} pass.
    Emits [incremental.*] telemetry counters mirroring {!update_stats};
    an enabled [journal] additionally records [maintain.start],
    [dred.cone] (overdeletion cone / rederivation / deletion sizes) and
    [maintain.end] events around the seeded passes' own event streams.

    A batch is all-or-nothing: if the repair raises (an exhausted
    worker retry, a [round] fault) or a budget ([deadline_s],
    [max_facts], [max_rounds]) stops it, the exception propagates with the EDB ({!edb_facts}) exactly as
    before the batch, and the next [maintain] — whatever its batch —
    re-chases ([u_fallback]) before anything builds on the
    half-repaired store. A repair runs under [on_limit = `Raise]
    whatever the state's options say: a [`Partial] stop would leave a
    half-repaired store behind a normal return. *)

val canonical_facts : Database.t -> (string * Database.fact list) list
(** The database contents in canonical form: predicates sorted, facts
    of each predicate sorted, and labeled nulls renumbered densely from
    0 in order of first occurrence over that sorted stream. Two
    materializations of the same EDB — e.g. a maintained database and a
    from-scratch re-chase — canonicalize identically even though their
    absolute null ids differ (the null counter is process-global). The
    renaming sorts facts with nulls masked by their within-fact
    repetition pattern, which names nulls uniquely for warded chases
    like ours; pathological fact sets that are identical up to a
    cross-fact null permutation may canonicalize to distinct forms
    (never the converse — equal canonical forms always mean isomorphic
    databases). Use {!equal_facts} for an exact decision. *)

val equal_facts : Database.t -> Database.t -> bool
(** Whether the two databases hold the same facts up to a bijective
    renaming of labeled nulls — a true isomorphism check. Equal
    canonical forms decide the common case in one pass; when they
    differ (fact sets identical only up to a cross-fact null
    permutation), an exact backtracking search for the bijection
    settles it, restricted to facts of the same predicate and
    within-fact null pattern. *)
