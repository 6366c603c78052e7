(** Typed constant values used throughout KGModel.

    Values populate attribute/property slots of graph elements, relational
    tuples and Vadalog facts. The [Id] case carries object identifiers from
    the internal OID space and the disjoint Skolem spaces (set {i I} in the
    paper); [Null] carries labeled nulls produced by existential
    quantification during the chase. *)

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Date of int * int * int  (** year, month, day *)
  | Id of Oid.t              (** internal object identifier *)
  | Null of int              (** labeled null (chase-invented) *)
  | List of t list           (** packed multi-values (the [pack] operator) *)

val compare : t -> t -> int
(** Structural order that delegates to {!Oid.compare} (the cosmetic
    [Fresh] hint is ignored) and [Float.compare] (total on NaN) at
    every nesting depth, including inside [List]s. *)

val equal : t -> t -> bool
val hash : t -> int

(** Key module for [Hashtbl.Make], consistent with {!equal}/{!hash}.
    Use instead of polymorphic hash tables wherever values (or facts
    built from them) are table keys: structural [( = )] never equates
    [Float nan] with itself and distinguishes [Id]s by their cosmetic
    hint. *)
module Hashed : Hashtbl.HashedType with type t = t

val to_buffer : Buffer.t -> t -> unit
(** Append the printed form of a value: [%g] floats, OCaml-escaped
    quoted strings, [yyyy-mm-dd] dates, [_:nN] nulls, {!Oid.to_buffer}
    identifiers, [[a;b]] lists. {!pp} and {!to_string} print through
    it. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Coercions} *)

val int : int -> t
val float : float -> t
val string : string -> t
val bool : bool -> t
val date : int -> int -> int -> t
val id : Oid.t -> t

val as_int : t -> int option
val as_float : t -> float option
(** [as_float] coerces [Int] to [float] as well. *)

val as_string : t -> string option
val as_bool : t -> bool option
val as_id : t -> Oid.t option

val is_null : t -> bool

(** {1 Value types (attribute domains)} *)

type ty = TInt | TFloat | TString | TBool | TDate | TId | TAny

val ty_of_string : string -> ty option
val ty_to_string : ty -> string
val pp_ty : Format.formatter -> ty -> unit
val type_of : t -> ty

val conforms : ty -> t -> bool
(** [conforms ty v] holds when [v] inhabits domain [ty]. [TAny] accepts
    everything; [Null]s are accepted by every domain (open-world). *)

val parse : ty -> string -> t option
(** Parse a literal of the given domain from its textual form. *)
