(** Derivation support (explanation and incremental maintenance).

    A support is the engine's one record of derivations: it explains a
    fact ({!Engine.explain_tree} renders its first derivation) and holds
    the full derivation structure delete-and-rederive needs: every
    derivation of every derived fact (a fact whose first derivation
    dies may survive through an alternative one), the labeled nulls
    each firing invented (a null's creating derivation dying retracts
    the null and every fact carrying it), a reverse (parent → children)
    edge index for walking overdeletion cones, a null → carrying-facts
    index, and the restricted-chase checks that {e suppressed} an
    invention together with the homomorphic image that satisfied them
    (if the image later dies, the suppressed firing must be
    re-attempted — it may then invent).

    A support is interned over the dictionary of the store it records
    ({!create}): a fact is its predicate and its id array — a parent is
    the store's own array — and a null is its id ({!Kgm_common.Intern.is_null}).
    Recording, the cone and pruning compare and hash ids only; a reader
    that shows a fact resolves it ({!compare_value} gives the value
    order explanations print premises in). A worker's scratch (negative)
    id never enters a support: the engine records only from its
    sequential merge, after re-interning.

    Pass a fresh support to {!Engine.run} for the initial chase and the
    {e same} one to every subsequent {!Engine.run_delta} over that
    database; recording must cover the whole life of the
    materialization or DRed's completeness argument breaks. Snapshots
    serialize the support recorded so far as an {!image} over the
    snapshot's dictionary, so a resumed run remaps it into the caller's
    support ({!absorb}) and the result is maintainable and explainable
    exactly as if never interrupted. *)

type t

type fact = string * Database.ifact
(** A predicate and an interned fact. *)

module Tbl : Hashtbl.S with type key = fact
(** Tables keyed by interned facts: equality of the predicate and of
    every id, hashed by {!Kgm_common.Slot_table.hash_fact} mixed with the
    predicate's hash. *)

type entry = {
  se_rule : int;  (** recording id of the firing rule *)
  se_parents : fact list;
      (** the positive body facts the firing consumed, in canonical id
          order (sorted by predicate, then ids; dedup'd) — DRed only
          needs the set *)
  se_nulls : int list;  (** ids of the labeled nulls this firing invented *)
}

val create : Kgm_common.Intern.t -> t
(** An empty support over a store's dictionary
    ({!Database.dict}); it records facts of every store sharing it. *)

val dict : t -> Kgm_common.Intern.t
(** The dictionary the support's ids index into. *)

(** {1 Recording} *)

val record :
  t -> rule_id:int -> parents:fact list -> nulls:int list -> string ->
  Database.ifact -> unit
(** [record t ~rule_id ~parents ~nulls pred fact] — one derivation of
    [fact], including a re-derivation of a fact already present (DRed
    needs the alternatives a fact may survive a retraction through),
    with the ids of the nulls the firing invented. A derivation already
    recorded (same rule, same parents) is not recorded twice. *)

val note_fact : t -> string -> Database.ifact -> unit
(** Called once per {e new} fact: indexes the nulls its tuple carries
    (see {!carriers}). *)

val record_suppressed :
  t -> rule_id:int -> parents:fact list -> image:fact list -> unit
(** A restricted-chase check that suppressed an invention, with the
    image that satisfied it; recorded once per rule and parents. *)

(** {1 Checkpoints} *)

type image
(** The support as plain data over its dictionary's ids: what a
    snapshot marshals. *)

val image : t -> image

val absorb : into:t -> remap:(int -> int) -> image -> unit
(** Merge an image read back from a checkpoint into the caller's
    (normally fresh) support, its ids renamed by [remap] (the
    snapshot's id → the caller's dictionary id); entry lists and
    recording order are preserved. *)

(** {1 Reading} *)

val entries : t -> string -> Database.ifact -> entry list
(** All recorded derivations of a fact, most recent first; [[]] for
    extensional (loaded) facts. *)

val children : t -> string -> Database.ifact -> fact list
(** The facts with an entry that consumes this one, most recent first,
    each listed at most once per such entry — so neither a fact
    {!prune} deleted nor one whose last such entry it removed. *)

val carriers : t -> int -> fact list
(** The facts whose tuple carries a labeled null (by id), most recent
    first. *)

val invented : t -> bool
(** Whether any recorded derivation invented a labeled null. *)

val fact_nulls : t -> Database.ifact -> int list
(** The ids of the labeled nulls occurring in a fact's tuple (including
    inside list values), sorted and dedup'd. *)

val fact_equal : fact -> fact -> bool
(** Equality of interned facts, as parents are compared. *)

val compare_value : t -> fact -> fact -> int
(** The order of the facts' values ({!Kgm_common.Value.compare}, after
    the predicate and the arity), read through the dictionary without
    resolving whole facts: the order an explanation prints premises in,
    and the one a re-attempted suppressed firing seeds its parents in. *)

(** {1 Pruning after a deletion} *)

val prune :
  t -> dead:(fact -> bool) -> fact list -> nulls:int list ->
  void:(int -> bool) -> kept:fact list -> unit
(** [prune t ~dead facts ~nulls ~void ~kept] once [facts] (the facts
    [dead] holds) are deleted: they lose their entries and their
    children lists, surviving facts lose the entries that consumed one
    of them, the dead [nulls] lose their carriers, and on the surviving
    facts [kept] every entry of a rule [void] holds goes. Each
    surviving parent of a removed entry has its children list filtered
    once, to the facts an entry still consumes it through, each listed
    once. *)

val sweep_suppressed :
  t -> dead:(fact -> bool) -> void:(int -> bool) -> fact list list
(** Drops the suppressed firings of rules [void] holds and those with a
    dead parent, and takes out those whose image has a dead fact: the
    latter must be re-attempted, and their parents are returned (in
    canonical id order), one list per firing, in recording order. *)
