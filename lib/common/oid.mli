(** Object identifiers.

    Every construct instance at every level of the KGModel stack is
    identified by a unique internal OID. Besides freshly generated OIDs,
    the paper's {e linker Skolem functors} (Sec. 4) deterministically mint
    identifiers from a functor name and a tuple of argument values; the
    images of distinct functors are disjoint and disjoint from the fresh
    space, which we obtain by tagging. *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_buffer : Buffer.t -> t -> unit
(** Append the printed form ("#12", "#12:hint", "sk_f(a,b)"); {!pp}
    and {!to_string} print through it. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

type gen
(** A generator of fresh OIDs. Generators are independent: OIDs from two
    generators may collide, so use one generator per dictionary/universe. *)

val make_gen : unit -> gen
val fresh : gen -> t
val fresh_named : gen -> string -> t
(** [fresh_named g hint] is fresh but keeps [hint] in the printed form,
    easing debugging of translated schemas. *)

val skolem : string -> string list -> t
(** [skolem functor_name args] is the deterministic linker-Skolem
    identifier sk_functor(args). Injective per functor, range-disjoint
    across functors and from [fresh] OIDs. *)

val is_skolem : t -> bool
val counter_value : gen -> int

val of_string : string -> t option
(** Parse the {!to_string} form back ("#12", "#12:hint",
    "sk_f(a,b)"); [None] on anything else. Round-trips identity:
    [of_string (to_string o) = Some o']' with [equal o o']. *)
