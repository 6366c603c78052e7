(** Company control (paper, Example 4.1/4.2 and reference [32]):
    x controls y when x directly owns more than 50% of y, or the
    companies x jointly controls (possibly together with x) own more
    than 50% of y.

    Three interchangeable encodings, cross-checked by EXP-5:
    the native worklist fixpoint here, the Vadalog program of
    Example 4.2 ({!vadalog_program} / {!via_vadalog}), and the MetaLog Σ
    of Example 4.1 ({!metalog_sigma}) run through Algorithm 2. *)

val controlled_by : Generator.ownership -> int -> int list
(** Companies controlled by the given vertex (itself excluded unless it
    is reached by the >50% rule), sorted. O(reachable edges) amortized
    worklist. *)

val all_pairs : Generator.ownership -> (int * int) list
(** All (controller, controlled) pairs with controllers ranging over
    companies, per Example 4.1 ("a business x controls a business y"). *)

val all_pairs_any_source : Generator.ownership -> (int * int) list
(** Control pairs rooted at every shareholder, individuals included —
    the ultimate-controller variant used by {!Groups}. *)

val pairs_from : Generator.ownership -> int list -> (int * int) list

val metalog_sigma : string
(** The MetaLog encoding of Example 4.1 over the Company-KG constructs
    (requires OWNS to be materialized first — see
    {!Intensional.owns}). *)

val vadalog_program : string
(** The Vadalog encoding of Example 4.2 over company/1 and own/3. *)

val vadalog_db : Generator.ownership -> Kgm_vadalog.Database.t
(** A fresh database holding the network as the company/1 and own/3
    facts {!vadalog_program} reads. *)

val via_vadalog :
  ?options:Kgm_vadalog.Engine.options -> Generator.ownership ->
  (int * int) list
(** Run {!vadalog_program} on the network; non-reflexive control pairs,
    sorted. *)
