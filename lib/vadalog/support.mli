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

    Pass a fresh support to {!Engine.run} for the initial chase and the
    {e same} one to every subsequent {!Engine.run_delta} over that
    database; recording must cover the whole life of the
    materialization or DRed's completeness argument breaks. Snapshots
    serialize the support recorded so far, so a resumed run keeps
    recording into the caller's support ({!absorb}) and the result is
    maintainable and explainable exactly as if never interrupted. *)

type t

module Tbl : Hashtbl.S with type key = string * Kgm_common.Value.t list
(** Fact-keyed hash tables, consistent with
    {!Kgm_common.Value.equal}/[hash] (like {!Database.KeyTbl}, plus the
    predicate name in the key). *)

val key : string -> Database.fact -> Tbl.key
(** A fact's key in {!Tbl}. *)

type entry = {
  se_rule : int;  (** recording id of the firing rule *)
  se_parents : (string * Database.fact) list;
      (** the positive body facts the firing consumed, in canonical
          (sorted, dedup'd) order — DRed only needs the set *)
  se_nulls : int list;  (** labeled nulls this firing invented *)
}

val create : unit -> t

(** {1 Recording} *)

val record :
  t -> rule_id:int -> parents:(string * Database.fact) list ->
  nulls:int list -> string -> Database.fact -> unit
(** [record t ~rule_id ~parents ~nulls pred fact] — one derivation of
    [fact], including a re-derivation of a fact already present (DRed
    needs the alternatives a fact may survive a retraction through),
    with the nulls the firing invented. A derivation already recorded
    (same rule, same parents) is not recorded twice. *)

val note_fact : t -> string -> Database.fact -> unit
(** Called once per {e new} fact: indexes the nulls its tuple carries
    (see {!carriers}). *)

val record_suppressed :
  t -> rule_id:int -> parents:(string * Database.fact) list ->
  image:(string * Database.fact) list -> unit
(** A restricted-chase check that suppressed an invention, with the
    image that satisfied it; recorded once per rule and parents. *)

val absorb : into:t -> t -> unit
(** Merge a support read back from a checkpoint into the caller's
    (normally fresh) one, entry lists and recording order preserved. *)

(** {1 Reading} *)

val entries : t -> string -> Database.fact -> entry list
(** All recorded derivations of a fact, most recent first; [[]] for
    extensional (loaded) facts. *)

val children : t -> string -> Database.fact -> (string * Database.fact) list
(** The facts with an entry that consumes this one, most recent first,
    each listed at most once per such entry — so neither a fact
    {!prune} deleted nor one whose last such entry it removed. *)

val carriers : t -> int -> (string * Database.fact) list
(** The facts whose tuple carries a labeled null, most recent first. *)

val invented : t -> bool
(** Whether any recorded derivation invented a labeled null. *)

val fact_nulls : Database.fact -> int list
(** The labeled-null ids occurring in a fact's tuple (including inside
    list values), sorted and dedup'd. *)

val parent_equal : string * Database.fact -> string * Database.fact -> bool
(** Equality of (predicate, fact) pairs, as parents are compared. *)

(** {1 Pruning after a deletion} *)

val prune :
  t -> dead:(string * Database.fact -> bool) ->
  (string * Database.fact) list -> nulls:int list -> void:(int -> bool) ->
  kept:(string * Database.fact) list -> unit
(** [prune t ~dead facts ~nulls ~void ~kept] once [facts] (the facts
    [dead] holds) are deleted: they lose their entries and their
    children lists, surviving facts lose the entries that consumed one
    of them, the dead [nulls] lose their carriers, and on the surviving
    facts [kept] every entry of a rule [void] holds goes. Each
    surviving parent of a removed entry has its children list filtered
    once, to the facts an entry still consumes it through, each listed
    once. *)

val sweep_suppressed :
  t -> dead:(string * Database.fact -> bool) -> void:(int -> bool) ->
  (string * Database.fact) list list
(** Drops the suppressed firings of rules [void] holds and those with a
    dead parent, and takes out those whose image has a dead fact: the
    latter must be re-attempted, and their parents are returned, one
    list per firing, in recording order. *)
