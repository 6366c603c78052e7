(** The reasoning engine: a restricted chase over warded programs with
    stratified negation, stratified and monotonic aggregation, and
    semi-naive evaluation.

    The semantics follows Sec. 4 of the paper: for each satisfied body
    φ(t,t'), a tuple t'' of constants and fresh labeled nulls is invented
    so that ψ(t,t'') holds. Termination on warded programs is obtained
    with the {e restricted} chase: an existential head is only
    instantiated when no homomorphic image of it already exists in the
    database. The oblivious variant (no check) is kept for the ABL-1
    ablation, guarded by the fact budget. *)

open Kgm_common
module Journal = Kgm_telemetry.Journal
module J = Kgm_telemetry.Json

type options = {
  semi_naive : bool;        (** ABL-2: false = naive re-evaluation *)
  restricted_chase : bool;  (** ABL-1: false = oblivious chase *)
  reorder_body : bool;      (** ABL-4: greedy join ordering of bodies *)
  provenance : bool;        (** retain the derivation support graph after
                                the chase (in {!stats.support}) so facts
                                can be explained; implied by passing
                                [?support] explicitly *)
  planner : bool;           (** cost-aware chase planning: skip delta
                                rounds of non-recursive strata, evaluate
                                delta-round bodies in selectivity order
                                (emission order restored by sorting, so
                                outputs are bit-for-bit those of the
                                unplanned engine) *)
  max_facts : int;          (** hard budget; exceeded -> Reason error *)
  max_rounds : int;
  jobs : int;               (** domains evaluating semi-naive rounds;
                                results are identical for every value *)
  deadline_s : float option;
                            (** monotonic wall-clock budget for the run,
                                checked at round boundaries and inside
                                pool workers *)
  on_limit : [ `Raise | `Partial ];
                            (** policy when a budget (facts, rounds,
                                deadline) trips or the run is cancelled:
                                raise as before, or stop cleanly and
                                return a partial result tagged in
                                {!stats.stopped} *)
}

(* KGM_JOBS lets the whole test suite (and any embedding) exercise the
   parallel path without code changes; an explicit [jobs] wins. *)
let default_jobs =
  match Sys.getenv_opt "KGM_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> 1)
  | None -> 1

let default_options =
  { semi_naive = true;
    restricted_chase = true;
    reorder_body = false;
    provenance = false;
    planner = true;
    max_facts = 5_000_000;
    max_rounds = 1_000_000;
    jobs = default_jobs;
    deadline_s = None;
    on_limit = `Raise }

type limit = [ `Cancelled | `Deadline | `Facts | `Rounds ]

let limit_name : limit -> string = function
  | `Cancelled -> "cancelled"
  | `Deadline -> "deadline"
  | `Facts -> "facts"
  | `Rounds -> "rounds"

(* Internal control-flow for limit trips. [clean] is true when the trip
   happened at a round boundary (or after a mid-round worker abort whose
   delta was restored), i.e. when the database state is exactly the end
   of a completed round and a final checkpoint may be written. A
   mid-merge fact-budget trip is not clean: facts of a half-merged round
   are present, so no checkpoint is written there (the partial result is
   still a deterministic prefix — the merge order is schedule-
   independent). *)
exception Stop_chase of limit * bool

(* ------------------------------------------------------------------ *)
(* Per-rule chase instrumentation. The counters are cheap enough (one
   int bump per event) to stay always-on; spans and histograms are only
   recorded into an enabled [?telemetry] collector. *)

type rule_stats = {
  rs_id : int;             (** position of the rule in the program *)
  rs_rule : string;        (** pretty-printed rule *)
  rs_label : string;       (** short label: head predicates, "p/2,q/3" *)
  rs_firings : int;        (** facts this rule added to the database *)
  rs_matches : int;        (** complete body matches (head instantiations
                               attempted; a don't-care literal may count
                               its first witness only, see
                               [first_witness]) *)
  rs_probes : int;         (** candidate facts examined while joining *)
  rs_nulls : int;          (** labeled nulls invented *)
  rs_chase_hits : int;     (** restricted-chase checks finding an image
                               (invention suppressed) *)
  rs_chase_misses : int;   (** checks finding none (nulls invented) *)
  rs_time_s : float;       (** monotonic time spent evaluating the rule *)
}

(* ------------------------------------------------------------------ *)
(* Run statistics                                                       *)

type stats = {
  rounds : int;
  new_facts : int;
  elapsed_s : float;
  delta_sizes : int list;  (** facts derived per semi-naive round, in
                               chronological order across strata *)
  nulls_invented : int;
  chase_hits : int;
  chase_misses : int;
  per_rule : rule_stats list;  (** program order *)
  stopped : limit option;  (** [Some l] when the run stopped early under
                               [on_limit:`Partial]; the result is a
                               deterministic prefix of the fixpoint *)
  support : Support.t option;
                           (** the derivation support recorded during the
                               run, when [options.provenance] was on or a
                               [?support] was passed *)
  negative_sums : int list;  (** recording ids of the monotonic [sum]
                                 rules that folded a negative weight,
                                 sorted *)
}

let merge_stats a b =
  { rounds = a.rounds + b.rounds;
    new_facts = a.new_facts + b.new_facts;
    elapsed_s = a.elapsed_s +. b.elapsed_s;
    delta_sizes = a.delta_sizes @ b.delta_sizes;
    nulls_invented = a.nulls_invented + b.nulls_invented;
    chase_hits = a.chase_hits + b.chase_hits;
    chase_misses = a.chase_misses + b.chase_misses;
    per_rule = a.per_rule @ b.per_rule;
    stopped = (match a.stopped with Some _ -> a.stopped | None -> b.stopped);
    support =
      (match a.support with Some _ -> a.support | None -> b.support);
    negative_sums =
      List.sort_uniq Int.compare (a.negative_sums @ b.negative_sums) }

let pp_rule_table ppf stats =
  let active =
    List.filter
      (fun r -> r.rs_matches > 0 || r.rs_probes > 0 || r.rs_firings > 0)
      stats.per_rule
  in
  let idle = List.length stats.per_rule - List.length active in
  let by_time =
    List.sort (fun a b -> compare b.rs_time_s a.rs_time_s) active
  in
  Format.fprintf ppf "%-28s %8s %8s %10s %6s %6s %6s %10s@."
    "rule" "fired" "matched" "probes" "nulls" "hits" "misses" "time s";
  Format.fprintf ppf "%s@." (String.make 90 '-');
  List.iter
    (fun r ->
      let label =
        if String.length r.rs_label <= 28 then r.rs_label
        else String.sub r.rs_label 0 25 ^ "..."
      in
      Format.fprintf ppf "%-28s %8d %8d %10d %6d %6d %6d %10.6f@."
        label r.rs_firings r.rs_matches r.rs_probes r.rs_nulls
        r.rs_chase_hits r.rs_chase_misses r.rs_time_s)
    by_time;
  if idle > 0 then
    Format.fprintf ppf "(%d rule%s with no activity omitted)@." idle
      (if idle = 1 then "" else "s");
  Format.fprintf ppf
    "total: %d new facts, %d rounds, %d nulls, %d/%d chase hits/misses, %.6fs@."
    stats.new_facts stats.rounds stats.nulls_invented stats.chase_hits
    stats.chase_misses stats.elapsed_s;
  match stats.stopped with
  | Some l ->
      Format.fprintf ppf
        "INCOMPLETE: stopped on %s after %d rounds (partial fixpoint prefix)@."
        (limit_name l) stats.rounds
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Bindings with trail-based backtracking                               *)

(* Bindings map variables to interned value ids (possibly a worker's
   negative scratch id, see below) — equality checks on the hot join
   path are int compares. *)
type env = {
  tbl : (string, int) Hashtbl.t;
  mutable trail : string list;
}

let env_create () = { tbl = Hashtbl.create 32; trail = [] }

let env_mark env = List.length env.trail

let env_undo env mark =
  while List.length env.trail > mark do
    match env.trail with
    | v :: rest ->
        Hashtbl.remove env.tbl v;
        env.trail <- rest
    | [] -> ()
  done

let env_bind env v value =
  Hashtbl.replace env.tbl v value;
  env.trail <- v :: env.trail

let env_lookup env v = Hashtbl.find_opt env.tbl v

(* ------------------------------------------------------------------ *)
(* Aggregation state (persists across rounds within a run)              *)

module KeyTbl = Database.KeyTbl
module IKeyTbl = Database.IKeyTbl

type group_state = {
  seen : unit KeyTbl.t;  (* contributor/dedup keys *)
  mutable acc : Value.t option;
}

type agg_state = group_state KeyTbl.t

let agg_step op acc v =
  match op, acc with
  | Rule.Count, None -> Value.Int 1
  | Rule.Count, Some (Value.Int c) -> Value.Int (c + 1)
  | Rule.Count, Some a -> a
  | Rule.Sum, None -> v
  | Rule.Sum, Some a ->
      (match a, v with
       | Value.Int x, Value.Int y -> Value.Int (x + y)
       | _ ->
           (match Value.as_float a, Value.as_float v with
            | Some x, Some y -> Value.Float (x +. y)
            | _ -> Kgm_error.reason_error "sum over non-numeric values"))
  | Rule.Prod, None -> v
  | Rule.Prod, Some a ->
      (match Value.as_float a, Value.as_float v with
       | Some x, Some y -> Value.Float (x *. y)
       | _ -> Kgm_error.reason_error "prod over non-numeric values")
  | Rule.Min, None -> v
  | Rule.Min, Some a -> if Value.compare v a < 0 then v else a
  | Rule.Max, None -> v
  | Rule.Max, Some a -> if Value.compare v a > 0 then v else a
  | Rule.Pack, None -> Value.List [ v ]
  | Rule.Pack, Some (Value.List l) -> Value.List (l @ [ v ])
  | Rule.Pack, Some a -> Value.List [ a; v ]

(* One contribution to a grouped aggregate: find or create group [gkey]
   of [state], then fold the contribution keyed [ckey] into it unless
   that key was folded before. [weight] is evaluated only for an unseen
   key; the result is the group and the folded weight, [None] for a
   seen key. *)
let agg_contribute op (state : agg_state) gkey ckey weight =
  let g =
    match KeyTbl.find_opt state gkey with
    | Some g -> g
    | None ->
        let g = { seen = KeyTbl.create 8; acc = None } in
        KeyTbl.add state gkey g;
        g
  in
  if KeyTbl.mem g.seen ckey then None
  else begin
    KeyTbl.add g.seen ckey ();
    let w = weight () in
    g.acc <- Some (agg_step op g.acc w);
    Some (g, w)
  end

(* ------------------------------------------------------------------ *)
(* Prepared rules.

   Rule bodies and heads are compiled against the database's dictionary
   at preparation time: constants become interned ids, so matching a
   literal against stored facts never touches a boxed value. *)

type cterm = CConst of int | CVar of string

type catom = { ca_pred : string; ca_args : cterm array }

type clit =
  | CPos of catom
  | CNeg of catom
  | CCond of Expr.t
  | CAssign of string * Expr.t
  | CAgg of Rule.aggregate

let compile_atom dict (a : Rule.atom) =
  { ca_pred = a.Rule.pred;
    ca_args =
      Array.of_list
        (List.map
           (function
             | Term.Const v -> CConst (Intern.intern dict v)
             | Term.Var x -> CVar x)
           a.Rule.args) }

let compile_lit dict = function
  | Rule.Pos a -> CPos (compile_atom dict a)
  | Rule.Neg a -> CNeg (compile_atom dict a)
  | Rule.Cond e -> CCond e
  | Rule.Assign (x, e) -> CAssign (x, e)
  | Rule.Agg g -> CAgg g

type prepared = {
  rule : Rule.rule;
  rule_id : int;
  rid : int;
  (* recording id: the rule id written into support entries, suppressed
     firings and aggregate state. Equal to [rule_id] except when a
     maintenance layer runs one phase of a larger pipeline and needs
     the recorded ids to stay unique across phases ([?rule_ids]). *)
  head_label : string;  (* "pred/arity" of every head atom, joined *)
  existentials : string list;
  (* for every monotonic/stratified aggregate literal (at most one
     stratified supported), the variables forming the group key *)
  group_vars : (int * string list) list;  (* literal index -> group vars *)
  strat_agg_index : int option;           (* index of a Stratified Agg literal *)
  has_agg : bool;          (* any aggregate literal: evaluation order
                              matters, so the rule never runs on the
                              worker pool *)
  needed_vars : string array;
  (* the non-existential head variables — everything the merge phase
     needs to re-fire a candidate (ground the head, run the
     restricted-chase check, invent nulls for the rest) *)
  cbody : clit array;  (* body compiled against the dictionary *)
  pos_ord : int array;
  (* written Pos ordinal of each body literal (-1 for the others): the
     slot its matched fact's insertion sequence takes in the merge sort
     key *)
  n_pos : int;         (* positive body literals: the sort key's length *)
  local_vars : string list array;
  (* per body literal, its variables that occur in no other literal and
     not in the head: the don't-care positions of a positive literal *)
  cheads : catom list; (* head atoms, likewise *)
}

(* every variable a literal mentions *)
let literal_vars = function
  | Rule.Pos a | Rule.Neg a -> Rule.atom_vars a
  | Rule.Cond e -> Expr.vars e
  | Rule.Assign (x, e) -> x :: Expr.vars e
  | Rule.Agg g -> (g.Rule.result :: g.Rule.contributors) @ Expr.vars g.Rule.weight

let vars_after body i =
  let rest = List.filteri (fun j _ -> j > i) body in
  List.sort_uniq String.compare (List.concat_map literal_vars rest)

let bound_before body i =
  let prefix = List.filteri (fun j _ -> j < i) body in
  Rule.body_vars prefix

(* ABL-4 [reorder_body]: the planner's greedy order, applied once to the
   written body from the cardinalities at run start. Unlike a round
   plan, this rewrite is visible — the written order defines emission
   order — so rules with aggregates, whose semantics depend on that
   order, keep theirs. *)
let reorder_rule db (r : Rule.rule) =
  if List.exists (function Rule.Agg _ -> true | _ -> false) r.Rule.body then r
  else
    let body = Array.of_list r.Rule.body in
    let plan = Planner.plan_rule ~count:(Database.count db) r in
    { r with Rule.body = List.map (Array.get body) plan.Planner.order }

let prepare ?rid dict rule_id (r : Rule.rule) =
  let hvars = Rule.head_vars r.Rule.head in
  let group_vars =
    List.concat
      (List.mapi
         (fun i lit ->
           match lit with
           | Rule.Agg g ->
               let before = bound_before r.Rule.body i in
               let after = vars_after r.Rule.body i in
               let used v = List.mem v hvars || List.mem v after in
               let gv =
                 List.filter
                   (fun v ->
                     used v
                     && (not (List.mem v g.Rule.contributors))
                     && v <> g.Rule.result)
                   before
               in
               [ (i, gv) ]
           | _ -> [])
         r.Rule.body)
  in
  let strat_agg_index =
    let rec find i = function
      | [] -> None
      | Rule.Agg g :: _ when g.Rule.mode = Rule.Stratified -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 r.Rule.body
  in
  (* the prefix of a stratified aggregate is enumerated before any
     group exists: no aggregate may precede it, and no second
     stratified one may follow *)
  (match strat_agg_index with
   | Some i ->
       List.iteri
         (fun j lit ->
           match lit with
           | Rule.Agg g when j < i || (j > i && g.Rule.mode = Rule.Stratified)
             ->
               Kgm_error.validate_error
                 "a stratified aggregate must be the first aggregate of its \
                  rule and the only stratified one"
           | _ -> ())
         r.Rule.body
   | None -> ());
  let existentials = Rule.existential_vars r in
  let has_agg =
    List.exists (function Rule.Agg _ -> true | _ -> false) r.Rule.body
  in
  let needed_vars =
    Array.of_list
      (List.filter
         (fun v -> not (List.mem v existentials))
         (Rule.head_vars r.Rule.head))
  in
  let n_pos = ref 0 in
  let pos_ord =
    Array.of_list
      (List.map
         (function
           | Rule.Pos _ ->
               incr n_pos;
               !n_pos - 1
           | _ -> -1)
         r.Rule.body)
  in
  { rule = r;
    rule_id;
    rid = (match rid with Some id -> id | None -> rule_id);
    head_label =
      String.concat ","
        (List.map
           (fun (a : Rule.atom) ->
             Printf.sprintf "%s/%d" a.Rule.pred (List.length a.Rule.args))
           r.Rule.head);
    existentials;
    group_vars;
    strat_agg_index;
    has_agg;
    needed_vars;
    cbody = Array.of_list (List.map (compile_lit dict) r.Rule.body);
    pos_ord;
    n_pos = !n_pos;
    local_vars =
      Array.of_list
        (List.mapi
           (fun j lit ->
             let elsewhere =
               hvars
               @ List.concat
                   (List.filteri (fun k _ -> k <> j)
                      (List.map literal_vars r.Rule.body))
             in
             List.filter (fun v -> not (List.mem v elsewhere)) (literal_vars lit))
           r.Rule.body);
    cheads = List.map (compile_atom dict) r.Rule.head }

(* ------------------------------------------------------------------ *)

(* per-rule mutable counters, aggregated into [rule_stats] at the end *)
type rule_ctr = {
  mutable c_firings : int;
  mutable c_matches : int;
  mutable c_probes : int;
  mutable c_nulls : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_time : float;
}

let fresh_ctr () =
  { c_firings = 0; c_matches = 0; c_probes = 0; c_nulls = 0; c_hits = 0;
    c_misses = 0; c_time = 0. }

type run_state = {
  db : Database.t;
  opts : options;
  mutable added : int;
  agg_states : (int, agg_state) Hashtbl.t; (* rid -> state *)
  sup : Support.t option;  (* full derivation support (DRed maintenance) *)
  mutable negative_sums : int list;
  (* recording ids of the [sum] rules that folded a negative weight,
     once per such weight *)
  keep_trail : bool;
  (* facts matched so far on the current evaluation path, kept while
     support is recorded (and for {!agg_matches}). The walker then
     pushes/pops once per matched candidate at EVERY join level, on
     workers as on the sequential path — tens of millions of times per
     round on probe-heavy joins — so it uses a manually-grown stack
     instead of list cells: a cons here would churn the minor heap
     enough to show up as whole-run overhead. *)
  mutable trail_preds : string array;
  mutable trail_facts : Database.ifact array;
  mutable trail_len : int;
  (* merge sweep only: the parents a worker collected with a candidate
     (the stack is empty there) *)
  mutable fact_trail : (string * Database.ifact) list;
  (* worker-local ids for values first computed on this domain while
     the dictionary is frozen (Assign results, mostly); re-interned
     sequentially at merge *)
  sc : Intern.Scratch.s;
  tele : Kgm_telemetry.t;
  jr : Kgm_telemetry.Journal.t;
  ctrs : rule_ctr array;       (* indexed by rule_id *)
  mutable cur : rule_ctr;      (* counters of the rule being evaluated *)
  mutable examined : int;
  (* candidate facts the restricted-chase checks tried; a run total,
     kept out of the per-rule counters (and so out of checkpoints) *)
  mutable round : int;         (* current fixpoint round (for errors) *)
  mutable trip_rule : string option;
                               (* rule that tripped the fact budget, for
                                  the error context under `Raise *)
}

let trail_push st pred fact =
  let n = st.trail_len in
  if n = Array.length st.trail_preds then begin
    let cap = if n = 0 then 8 else 2 * n in
    let tp = Array.make cap "" and tf = Array.make cap [||] in
    Array.blit st.trail_preds 0 tp 0 n;
    Array.blit st.trail_facts 0 tf 0 n;
    st.trail_preds <- tp;
    st.trail_facts <- tf
  end;
  st.trail_preds.(n) <- pred;
  st.trail_facts.(n) <- fact;
  st.trail_len <- n + 1

(* the current evaluation path's matched facts, most recent first (the
   order the old cons-built trail had); only materialized on a complete
   body match, where a recorder actually consumes it *)
let trail_parents st =
  if st.trail_len = 0 then st.fact_trail
  else begin
    let acc = ref [] in
    for i = 0 to st.trail_len - 1 do
      acc := (st.trail_preds.(i), st.trail_facts.(i)) :: !acc
    done;
    !acc
  end

(* Labeled nulls are drawn from a process-wide counter: successive runs
   over a shared database (e.g. the two phases of Algorithm 2) must
   never re-issue a null already present in the facts. Atomic so the
   invariant survives embeddings that run engines from several domains;
   within one run only the sequential merge phase invents nulls, which
   is what makes the numbering independent of [options.jobs]. *)
let global_null_counter = Atomic.make 0

(* [fresh_null st] returns the interned id of the fresh null and its
   label. Only called from sequential sections (round 0, the merge
   sweep), where appending to the dictionary is legal. *)
let fresh_null st =
  st.cur.c_nulls <- st.cur.c_nulls + 1;
  let n = Atomic.fetch_and_add global_null_counter 1 + 1 in
  (Intern.intern (Database.dict st.db) (Value.Null n), n)

(* Id handling. Non-negative ids live in the shared dictionary;
   negative ids are worker-local scratch entries (values a worker
   computed that the frozen dictionary does not hold). [value_id]
   encodes a computed value: a direct intern when the store is live
   (sequential paths — deterministic id order), a read-only find plus
   scratch fallback when frozen (worker paths — no mutation). A scratch
   id can never spuriously equal a dictionary id, and two ids are equal
   iff their values are: scratch entries are only created for values
   absent from the dictionary, and both tables dedup. *)
let resolve_id st id =
  if id >= 0 then Intern.resolve (Database.dict st.db) id
  else Intern.Scratch.resolve st.sc id

let value_id st v =
  if Database.is_frozen st.db then
    match Intern.find (Database.dict st.db) v with
    | Some id -> id
    | None -> Intern.Scratch.id st.sc v
  else Intern.intern (Database.dict st.db) v

let id_is_null st id =
  if id >= 0 then Intern.is_null (Database.dict st.db) id
  else Value.is_null (Intern.Scratch.resolve st.sc id)

let resolve_ifact st (f : Database.ifact) : Database.fact =
  Array.map (resolve_id st) f

let resolve_parents st ps =
  List.map (fun (p, f) -> (p, resolve_ifact st f)) ps

(* variable resolver for expression evaluation over id bindings *)
let env_value st env x = Option.map (resolve_id st) (env_lookup env x)

let cterm_id env = function
  | CConst id -> Some id
  | CVar x -> env_lookup env x

(* the positions of [a] bound under [env] (constants included), with
   their ids: a probe's pattern and key *)
let bound_key env (a : catom) =
  let positions = ref [] and key = ref [] in
  for i = Array.length a.ca_args - 1 downto 0 do
    match cterm_id env a.ca_args.(i) with
    | Some id ->
        positions := i :: !positions;
        key := id :: !key
    | None -> ()
  done;
  (!positions, !key)

(* The per-round delta a rule evaluation ranges over, with a lazily
   built hash index per (arity, bound-positions) pattern. A probe's
   group holds exactly the facts the old linear filter (arity guard
   first, then pointwise equality at the bound positions) would have
   kept, in the same chronological order — probe counters and match
   order are unchanged, only the per-probe scan of the whole delta goes
   away. Each entry carries the fact's index within the round's delta,
   the delta component of the emission-order sort key. *)
type delta_group = {
  dg_facts : (int * Database.ifact) list;  (* (delta index, fact), chronological *)
  dg_cache : (int * int list, (int * Database.ifact) list ref IKeyTbl.t) Hashtbl.t;
}

let delta_group ?(offset = 0) facts =
  { dg_facts = List.mapi (fun i f -> (offset + i, f)) facts;
    dg_cache = Hashtbl.create 4 }

let dg_lookup dg ~arity positions key =
  let ck = (arity, positions) in
  let tbl =
    match Hashtbl.find_opt dg.dg_cache ck with
    | Some t -> t
    | None ->
        let t = IKeyTbl.create 32 in
        List.iter
          (fun ((_, f) as entry) ->
            if Array.length f = arity then begin
              (* positions all < arity: they index a literal of this arity *)
              let k = List.map (fun i -> f.(i)) positions in
              match IKeyTbl.find_opt t k with
              | Some r -> r := entry :: !r
              | None -> IKeyTbl.add t k (ref [ entry ])
            end)
          dg.dg_facts;
        IKeyTbl.iter (fun _ r -> r := List.rev !r) t;
        Hashtbl.add dg.dg_cache ck t;
        t
  in
  match IKeyTbl.find_opt tbl key with Some r -> !r | None -> []

let ground_atom env (a : catom) : Database.ifact =
  Array.map
    (fun t ->
      match cterm_id env t with
      | Some id -> id
      | None -> Kgm_error.reason_error "unbound variable in ground_atom")
    a.ca_args

(* Does the head have a homomorphic image in the database under env?
   Backtracking over head atoms; existential vars accumulate bindings.

   Mirroring the Vadalog System's termination strategy for warded
   programs, labeled nulls bound in the body are matched {e up to
   consistent renaming}: the head is considered satisfied when an image
   exists in which each body null maps to some term, the same one at
   every occurrence. This is what makes chases like
   [mgr(X,M) :- emp(X). emp(M) :- mgr(X,M).] terminate while preserving
   certain answers over null-free facts.

   The search visits next, at every step, the remaining head atom whose
   bound positions select the smallest index group (ties in written
   order): bound are the rigid ids, the existentials that already have
   an image and the body nulls already mapped. A body null leading the
   written first atom would otherwise make every check list every fact
   of its predicate. Whether an image exists does not depend on the
   order, so hits and misses do not either; which image is found first
   may. Candidates are visited in place and the search stops at the
   first complete image; each one tried counts into [st.examined].

   Returns [Some image] — the database facts forming the satisfying
   homomorphic image, one per head atom in written order — or [None]
   when no image exists. The maintenance layer records the image with
   the suppressed firing: should any of its facts later be retracted,
   the firing is re-attempted (and may then invent). *)
let head_satisfied st env (prep : prepared) =
  let ex_env : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let null_map : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let heads = Array.of_list prep.cheads in
  let n_heads = Array.length heads in
  let image = Array.make n_heads ("", [||]) in
  let placed = Array.make n_heads false in
  (* [`Rigid id]: the image is the term's id itself (constants, non-null
     body bindings, and already-chosen images of existentials);
     [`Flex id]: a body-bound null, flexible up to the consistent
     renaming in [null_map]; [`Free x]: an existential without an image
     yet. *)
  let requirement t =
    match t with
    | CConst id -> if id_is_null st id then `Flex id else `Rigid id
    | CVar x ->
        (match env_lookup env x with
         | Some id -> if id_is_null st id then `Flex id else `Rigid id
         | None ->
             (match Hashtbl.find_opt ex_env x with
              | Some id -> `Rigid id
              | None -> `Free x))
  in
  (* the positions an image of [a] is fixed at now, with their ids *)
  let probe (a : catom) =
    let positions = ref [] and key = ref [] in
    for i = Array.length a.ca_args - 1 downto 0 do
      match requirement a.ca_args.(i) with
      | `Rigid id ->
          positions := i :: !positions;
          key := id :: !key
      | `Flex id ->
          (match Hashtbl.find_opt null_map id with
           | Some mapped ->
               positions := i :: !positions;
               key := mapped :: !key
           | None -> ())
      | `Free _ -> ()
    done;
    (!positions, !key)
  in
  let rec go placed_n =
    placed_n = n_heads
    ||
    let best = ref (-1) and best_size = ref max_int and best_probe = ref ([], []) in
    for i = 0 to n_heads - 1 do
      if (not placed.(i)) && !best_size > 0 then begin
        let positions, key = probe heads.(i) in
        let size = Database.probe_size st.db heads.(i).ca_pred positions key in
        if size < !best_size then begin
          best := i;
          best_size := size;
          best_probe := (positions, key)
        end
      end
    done;
    let i = !best in
    let a = heads.(i) in
    let args = a.ca_args in
    let n = Array.length args in
    let positions, key = !best_probe in
    placed.(i) <- true;
    let found = ref false in
    ignore
      (Database.iter_matches_i st.db a.ca_pred positions key (fun _ fact ->
           st.examined <- st.examined + 1;
           if Array.length fact = n then begin
             let new_ex = ref [] and new_nulls = ref [] in
             let rec bind p =
               p >= n
               || (match requirement args.(p) with
                   | `Rigid id -> id = fact.(p)
                   | `Flex id -> (
                       (* consistent renaming: one image per null *)
                       match Hashtbl.find_opt null_map id with
                       | Some mapped -> mapped = fact.(p)
                       | None ->
                           Hashtbl.add null_map id fact.(p);
                           new_nulls := id :: !new_nulls;
                           true)
                   | `Free x ->
                       Hashtbl.add ex_env x fact.(p);
                       new_ex := x :: !new_ex;
                       true)
                  && bind (p + 1)
             in
             if bind 0 && go (placed_n + 1) then begin
               image.(i) <- (a.ca_pred, fact);
               found := true
             end
             else begin
               List.iter (Hashtbl.remove ex_env) !new_ex;
               List.iter (Hashtbl.remove null_map) !new_nulls
             end
           end;
           !found));
    if not !found then placed.(i) <- false;
    !found
  in
  if go 0 then Some (Array.to_list image) else None

let fire st env (prep : prepared) ~on_new =
  st.cur.c_matches <- st.cur.c_matches + 1;
  let budget_check () =
    if Database.total st.db > st.opts.max_facts then begin
      (* trip mid-merge: not a clean round boundary, no checkpoint. The
         error (or tagged partial result) is produced by [run]'s outer
         handler, which keeps the firing rule for the context. *)
      st.trip_rule <- Some (Format.asprintf "%a" Rule.pp_rule prep.rule);
      raise (Stop_chase (`Facts, false))
    end
  in
  let add_head nulls (a : catom) =
    let ifact = ground_atom env a in
    let fresh = Database.add_i st.db a.ca_pred ifact in
    if fresh then begin
      st.added <- st.added + 1;
      st.cur.c_firings <- st.cur.c_firings + 1;
      budget_check ()
    end;
    (* the support records EVERY derivation — including re-derivations
       of a fact already present: DRed needs the alternatives a fact may
       survive a retraction through. It stays value-based: resolve once,
       at the recording boundary, off the hot dedup path *)
    (match st.sup with
     | Some sup ->
         let fact = resolve_ifact st ifact in
         if fresh then Support.note_fact sup a.ca_pred fact;
         Support.record sup ~rule_id:prep.rid
           ~parents:(resolve_parents st (trail_parents st)) ~nulls a.ca_pred
           fact
     | None -> ());
    if fresh then on_new a.ca_pred ifact
  in
  if prep.existentials = [] then List.iter (add_head []) prep.cheads
  else begin
    let satisfied =
      st.opts.restricted_chase
      &&
      match head_satisfied st env prep with
      | Some image ->
          st.cur.c_hits <- st.cur.c_hits + 1;
          (match st.sup with
           | Some sup ->
               Support.record_suppressed sup ~rule_id:prep.rid
                 ~parents:(resolve_parents st (trail_parents st))
                 ~image:(resolve_parents st image)
           | None -> ());
          true
      | None ->
          st.cur.c_misses <- st.cur.c_misses + 1;
          false
    in
    if not satisfied then begin
      let mark = env_mark env in
      let invented =
        List.map
          (fun x ->
            let id, k = fresh_null st in
            env_bind env x id;
            k)
          prep.existentials
      in
      List.iter (add_head invented) prep.cheads;
      env_undo env mark
    end
  end

(* Bind the variables of [args] from position [i] on to [fact] under
   [env], checking constants and already-bound variables; bindings made
   before a mismatch are left for the caller's [env_undo]. Called once
   per examined fact, so it allocates no closure. *)
let rec unify env args (fact : Database.ifact) i =
  i >= Array.length args
  || (match args.(i) with
      | CConst id -> id = fact.(i)
      | CVar x -> (
          match env_lookup env x with
          | Some id -> id = fact.(i)
          | None ->
              env_bind env x fact.(i);
              true))
     && unify env args fact (i + 1)

(* The group and contributor keys of the match at hand, for the
   aggregate literal [j] of [prep]. Aggregate state is checkpointed, so
   its keys stay value-level. *)
let agg_keys st env (prep : prepared) j (g : Rule.aggregate) =
  let values what vars =
    List.map
      (fun v ->
        match env_value st env v with
        | Some value -> value
        | None -> Kgm_error.reason_error "unbound %s %s" what v)
      vars
  in
  ( values "group variable" (List.assoc j prep.group_vars),
    values "contributor" g.Rule.contributors )

let negative_weight w =
  match Value.as_float w with Some f -> f < 0. | None -> false

(* A monotonic aggregate literal (body index [j]): fold this match's
   contribution into its group and, when the contribution is new,
   continue under the running total. Aggregate rules only run on the
   sequential path. *)
let monotonic st env (prep : prepared) j (g : Rule.aggregate) continue =
  let group_key, contrib_key = agg_keys st env prep j g in
  let state =
    match Hashtbl.find_opt st.agg_states prep.rid with
    | Some s -> s
    | None ->
        let s = KeyTbl.create 64 in
        Hashtbl.add st.agg_states prep.rid s;
        s
  in
  match
    agg_contribute g.Rule.op state group_key contrib_key (fun () ->
        Expr.eval_fn (env_value st env) g.Rule.weight)
  with
  | None -> ()
  | Some (group, w) ->
      if g.Rule.op = Rule.Sum && negative_weight w then
        st.negative_sums <- prep.rid :: st.negative_sums;
      let mark = env_mark env in
      env_bind env g.Rule.result (value_id st (Option.get group.acc));
      continue ();
      env_undo env mark

(* The body walker: the one evaluator of rule bodies. It walks [order]
   — body literal indices: the written order for round 0, aggregate
   rules and naive rounds, a plan for pool work items, a stratified
   aggregate's prefix and then its suffix, a monotonic aggregate's
   delta-first prefix and then, per sorted match, its aggregate literal
   and suffix — under [env], calling [emit]
   once per satisfied body. Positive literals probe the store through
   [Database.iter_matches_i], except [delta = Some (j, dg)], whose
   literal [j] ranges over the round's delta [dg]. Each match writes
   the matched fact's insertion sequence (its delta index, for the
   delta literal) into [keyv] at the literal's written Pos ordinal — the
   worker path's merge sort key — and, while support is recorded,
   pushes the fact onto [st]'s trail, from which [fire] or the worker's
   candidate takes the derivation's parents.

   On the live store a firing may append to a predicate that an outer
   literal is still enumerating: [iter_matches_i] visits the group as
   of the probe, so later facts wait for the next round's delta, as
   they would from a snapshot.

   A literal [j] with [first.(j)] (see {!first_witness}; [first] may be
   shorter than the body, [[||]] marks none) stops at its first matching
   fact. *)
let walk st env (prep : prepared) ~order ~delta ~first ~keyv ~emit =
  let body = prep.cbody in
  let record = st.keep_trail in
  let rec go = function
    | [] -> emit ()
    | j :: rest -> (
        let continue () = go rest in
        match body.(j) with
        | CPos a ->
            let args = a.ca_args in
            let n = Array.length args in
            let positions, key = bound_key env a in
            let ord = prep.pos_ord.(j) in
            let stop = j < Array.length first && first.(j) in
            (* true to end the probe: a match of a first-witness literal *)
            let try_fact seq (fact : Database.ifact) =
              Array.length fact = n
              &&
              let mark = env_mark env in
              let hit = unify env args fact 0 in
              if hit then begin
                keyv.(ord) <- seq;
                if record then begin
                  trail_push st a.ca_pred fact;
                  continue ();
                  st.trail_len <- st.trail_len - 1
                end
                else continue ()
              end;
              env_undo env mark;
              hit && stop
            in
            let examined =
              match delta with
              | Some (dj, dg) when dj = j ->
                  let group = dg_lookup dg ~arity:n positions key in
                  List.iter (fun (i, f) -> ignore (try_fact i f)) group;
                  List.length group
              | _ ->
                  Database.iter_matches_i st.db a.ca_pred positions key
                    try_fact
            in
            st.cur.c_probes <- st.cur.c_probes + examined
        | CNeg a ->
            let fact = ground_atom env a in
            (* a fact holding a worker-local scratch id cannot be
               stored: [mem_i] is false, i.e. the negated atom correctly
               fails to block *)
            if not (Database.mem_i st.db a.ca_pred fact) then continue ()
        | CCond e -> if Expr.truthy_fn (env_value st env) e then continue ()
        | CAssign (x, e) ->
            let v = Expr.eval_fn (env_value st env) e in
            let id = value_id st v in
            (match env_lookup env x with
             | Some id' -> if id = id' then continue ()
             | None ->
                 let mark = env_mark env in
                 env_bind env x id;
                 continue ();
                 env_undo env mark)
        | CAgg g when g.Rule.mode = Rule.Monotonic ->
            monotonic st env prep j g continue
        | CAgg _ ->
            Kgm_error.reason_error
              "stratified aggregate not handled inline (engine bug)")
  in
  go order

(* Which literals of a walk stop at their first matching fact, decided
   once per (rule, walk order, delta literal). A positive literal other
   than the delta literal qualifies when every variable it does not find
   bound is a don't-care — one that occurs in no other literal and not
   in the head (MTV's [_Ma…] fillers, the parser's [_]): its witnesses
   bind nothing the rest of the walk reads, so each later witness would
   re-run the same continuation. On the same store, provided
   - the walk records no derivations ([keep_trail] off: support and the
     maintenance listings need every alternative derivation);
   - no later literal of [order] reads, from the live store, a predicate
     in [live] (what the current stratum derives; [[]] on a frozen
     store, where nothing changes under the walk) — the delta literal
     reads the round's delta and does not count;
   - an existential head is re-checked, not re-invented (the restricted
     chase).
   Then a later witness could only re-fire a head already present or
   already satisfied, or re-offer a contributor key already folded: no
   fact, null, round or firing moves, only [rs_matches], [rs_chase_hits]
   and the probes of the skipped continuations. The delta literal never
   stops early: its chunks differ per pool size, and the counters must
   not. *)
let first_witness st (prep : prepared) ~order ~delta_lit ~live =
  if st.keep_trail || (prep.existentials <> [] && not st.opts.restricted_chase)
  then [||]
  else begin
    let first = Array.make (Array.length prep.cbody) false in
    let bound = Hashtbl.create 16 in
    let reads_live k =
      Some k <> delta_lit
      &&
      match prep.cbody.(k) with
      | CPos a | CNeg a -> List.mem a.ca_pred live
      | CCond _ | CAssign _ | CAgg _ -> false
    in
    let body = Array.of_list prep.rule.Rule.body in
    let rec go = function
      | [] -> ()
      | j :: rest ->
          (match prep.cbody.(j) with
           | CPos a when Some j <> delta_lit ->
               first.(j) <-
                 Array.for_all
                   (function
                     | CConst _ -> true
                     | CVar x -> Hashtbl.mem bound x || List.mem x prep.local_vars.(j))
                   a.ca_args
                 && not (List.exists reads_live rest)
           | _ -> ());
          List.iter
            (fun v -> Hashtbl.replace bound v ())
            (Rule.literal_body_bound body.(j));
          go rest
    in
    go order;
    first
  end

(* a fresh merge sort key for one evaluation of [prep] *)
let sort_key (prep : prepared) = Array.make (max 1 prep.n_pos) 0

(* A run state that records, journals and observes nothing: as is, for
   walks beside the chase loop — a pool work item, read-only on the
   frozen store (collectors are not domain-safe), or a match listing;
   the chase loop extends it. *)
let walk_state db ~keep_trail =
  { db; opts = default_options; added = 0; agg_states = Hashtbl.create 1;
    sup = None; negative_sums = []; keep_trail; trail_preds = [||];
    trail_facts = [||]; trail_len = 0; fact_trail = [];
    sc = Intern.Scratch.create (); tele = Kgm_telemetry.null;
    jr = Kgm_telemetry.Journal.null; ctrs = [||]; cur = fresh_ctr ();
    examined = 0; round = 0; trip_rule = None }

(* ------------------------------------------------------------------ *)
(* Counting maintenance reads a monotonic aggregate's groups from the
   store: the prefix matches of its aggregate literal. *)

type agg_match = {
  am_group : Value.t list;
  am_key : Value.t list;
  am_weight : Value.t;
  am_parents : (string * Database.fact) list;
}

(* a monotonic aggregate rule compiled against a dictionary *)
type agg_rule = {
  ar_dict : Intern.t;
  ar_prep : prepared;
  ar_lit : int;
  ar_agg : Rule.aggregate;
}

let agg_rule db (r : Rule.rule) =
  let prep = prepare (Database.dict db) 0 r in
  let rec find j =
    if j >= Array.length prep.cbody then
      invalid_arg "Engine.agg_rule: no monotonic aggregate"
    else
      match prep.cbody.(j) with
      | CAgg g when g.Rule.mode = Rule.Monotonic ->
          { ar_dict = Database.dict db; ar_prep = prep; ar_lit = j; ar_agg = g }
      | _ -> find (j + 1)
  in
  find 0

(* The matches of the rule's prefix, in the walker's order: through one
   fact (at every prefix literal it fits, so a match using it twice is
   listed twice), or of the groups agreeing with a key (a value, or
   [None] for any, per group variable). A group walk binds only the
   group variables of the first positive prefix literal and checks the
   others on each match: its probes are then those of a delta round
   over that literal, instead of an index on every group variable. *)
let agg_matches db { ar_dict; ar_prep = prep; ar_lit = j; ar_agg = g } source =
  if Database.dict db != ar_dict then
    invalid_arg "Engine.agg_matches: rule compiled for another dictionary";
  let st = walk_state db ~keep_trail:true in
  let env = env_create () and keyv = sort_key prep and out = ref [] in
  let prefix = List.init j Fun.id in
  let gv = List.assoc j prep.group_vars in
  (* [key] compared as ids: a value never interned matches nothing *)
  let list ?delta ?(key = List.map (fun _ -> None) gv) order =
    let ids = List.map (Option.map (Intern.find (Database.dict db))) key in
    walk st env prep ~order ~delta ~first:[||] ~keyv ~emit:(fun () ->
        if
          List.for_all2
            (fun v -> Option.fold ~none:true ~some:(( = ) (env_lookup env v)))
            gv ids
        then begin
          let am_group, am_key = agg_keys st env prep j g in
          out :=
            { am_group; am_key;
              am_weight = Expr.eval_fn (env_value st env) g.Rule.weight;
              am_parents = resolve_parents st (trail_parents st) }
            :: !out
        end)
  in
  (match source with
   | `Group key ->
       let anchor =
         List.find_map
           (fun i -> match prep.cbody.(i) with CPos a -> Some a.ca_args | _ -> None)
           prefix
       in
       List.iter2
         (fun v -> function
           | Some x when Option.fold ~none:false ~some:(Array.mem (CVar v)) anchor ->
               env_bind env v (value_id st x)
           | _ -> ())
         gv key;
       list ~key prefix
   | `Fact (pred, fact) ->
       let ifact = Database.find_fact db fact in
       Array.iteri
         (fun i lit ->
           match (lit, ifact) with
           | CPos a, Some f when i < j && a.ca_pred = pred ->
               list ~delta:(i, delta_group [ f ]) (i :: List.filter (( <> ) i) prefix)
           | _ -> ())
         prep.cbody);
  List.rev !out

(* The keys of the groups whose heads include [(pred, fact)]: read off a
   head atom that binds every group variable, else listed with the
   values it binds. *)
let agg_head_groups db ({ ar_prep = prep; ar_lit = j; _ } as ar) (pred, fact) =
  let gv = List.assoc j prep.group_vars in
  let st = walk_state db ~keep_trail:false and env = env_create () in
  let ifact = Database.find_fact db fact in
  List.concat_map
    (fun a ->
      let mark = env_mark env in
      let key =
        match ifact with
        | Some f
          when a.ca_pred = pred && Array.length a.ca_args = Array.length f
               && unify env a.ca_args f 0 ->
            Some (List.map (env_value st env) gv)
        | _ -> None
      in
      env_undo env mark;
      match key with
      | None -> []
      | Some key when List.for_all Option.is_some key -> [ List.map Option.get key ]
      | Some key -> List.map (fun m -> m.am_group) (agg_matches db ar (`Group key)))
    prep.cheads
  |> List.sort_uniq (List.compare Value.compare)

(* Stratified-aggregate rule: walk the prefix and fold every match into
   its group, then walk the suffix per group with only the group
   variables (plus the result) in scope. *)
let eval_stratified st (prep : prepared) agg_i ~on_new =
  let g =
    match prep.cbody.(agg_i) with
    | CAgg g -> g
    | _ -> assert false
  in
  let gv = List.assoc agg_i prep.group_vars in
  (* set-semantics dedup key: one contribution per distinct binding of
     the NAMED prefix variables. Variables starting with '_' (the
     parser's anonymous "_" and MTV's generated slot fillers) denote
     don't-care positions of the same graph element: two facts that
     differ only there must not contribute twice. *)
  let prefix_vars =
    List.filter
      (fun v -> not (String.length v > 0 && v.[0] = '_'))
      (Rule.body_vars
         (List.filteri (fun j _ -> j < agg_i) prep.rule.Rule.body))
  in
  let keyv = sort_key prep in
  let groups : agg_state = KeyTbl.create 64 in
  (* groups fire in the order the walk first met them, not in hash
     order: a key holding a labeled null hashes by the null's number,
     which depends on how many nulls the process invented before *)
  let first_seen = ref [] in
  let env = env_create () in
  walk st env prep ~order:(List.init agg_i Fun.id) ~delta:None ~first:[||]
    ~keyv ~emit:(fun () ->
      let group_key, contrib_key = agg_keys st env prep agg_i g in
      let dedup_key =
        if g.Rule.contributors <> [] then contrib_key
        else
          (* set semantics: one contribution per distinct prefix binding *)
          List.map
            (fun v -> Option.value ~default:(Value.Null 0) (env_value st env v))
            prefix_vars
      in
      let n = KeyTbl.length groups in
      ignore
        (agg_contribute g.Rule.op groups group_key dedup_key (fun () ->
             Expr.eval_fn (env_value st env) g.Rule.weight));
      if KeyTbl.length groups > n then first_seen := group_key :: !first_seen);
  (* per group: bind group vars + result, then run the suffix and head *)
  let suffix =
    List.init (Array.length prep.cbody - agg_i - 1) (fun k -> agg_i + 1 + k)
  in
  List.iter
    (fun group_key ->
      match (KeyTbl.find groups group_key).acc with
      | None -> ()
      | Some acc ->
          let env = env_create () in
          List.iter2 (fun v value -> env_bind env v (value_id st value)) gv
            group_key;
          env_bind env g.Rule.result (value_id st acc);
          walk st env prep ~order:suffix ~delta:None ~first:[||] ~keyv
            ~emit:(fun () -> fire st env prep ~on_new))
    (List.rev !first_seen)

(* ------------------------------------------------------------------ *)

(* Run [f] as one evaluation of [prep]: its counters are current, its
   time accrues to [c_time] and the [engine.rule_eval_s] histogram, and
   an evaluation that derived facts also gets a [rule:<head>] span and
   a [rule.batch] journal event. *)
let timed_rule st (prep : prepared) f =
  let ctr = st.ctrs.(prep.rule_id) in
  st.cur <- ctr;
  let t0 = Kgm_telemetry.Clock.now () in
  let before = st.added in
  f ctr;
  let t1 = Kgm_telemetry.Clock.now () in
  ctr.c_time <- ctr.c_time +. (t1 -. t0);
  if Kgm_telemetry.enabled st.tele then begin
    Kgm_telemetry.observe st.tele "engine.rule_eval_s" (t1 -. t0);
    (* one span per rule evaluation that actually fired; quiet
       evaluations stay out of the trace to keep it readable *)
    if st.added > before then
      Kgm_telemetry.record_span st.tele ~cat:"rule"
        ~args:
          [ ("fired", string_of_int (st.added - before));
            ("round", string_of_int st.round) ]
        ("rule:" ^ prep.head_label) ~start:t0 ~stop:t1
  end;
  if Journal.enabled st.jr && st.added > before then
    Journal.emit st.jr "rule.batch"
      [ ("round", J.Int st.round);
        ("rule", J.Str prep.head_label);
        ("derived", J.Int (st.added - before));
        ("time_s", J.Float (t1 -. t0)) ]

(* one evaluation of [prep] on the live store, in written order; [live]:
   the predicates the current stratum derives *)
let eval_rule st (prep : prepared) ~delta ~live ~on_new =
  timed_rule st prep (fun _ ->
      match prep.strat_agg_index with
      | Some agg_i ->
          if delta = None then eval_stratified st prep agg_i ~on_new
      | None ->
          let env = env_create () in
          let order = List.init (Array.length prep.cbody) Fun.id in
          walk st env prep ~order ~delta
            ~first:
              (first_witness st prep ~order
                 ~delta_lit:(Option.map fst delta) ~live)
            ~keyv:(sort_key prep)
            ~emit:(fun () -> fire st env prep ~on_new))

(* ------------------------------------------------------------------ *)
(* Parallel semi-naive rounds.

   Within a stratum, every delta round is split into (rule x delta
   chunk) work items. Workers match rule bodies against the database
   {e frozen as of the round start} and only record candidate head
   bindings; a sequential merge phase re-fires each candidate against
   the live store: dedup, the restricted-chase homomorphism check,
   labeled-null invention, support and delta recording all happen
   there.

   Merge order: each candidate carries the vector of fact insertion
   sequences of its match, over the written positive-literal positions
   (the delta literal contributes the fact's index within the round's
   delta). A sequential written-order evaluation of the whole delta
   emits matches exactly in lexicographic order of these vectors —
   candidate lists are probed in ascending insertion order, and the
   vector determines the match. So the merge, firing each (rule, delta
   literal) group sorted on the vectors, reproduces that sequential
   emission order independently of chunking, worker count, completion
   schedule, and of the order workers actually evaluated the literals
   in — which frees the planner to evaluate bodies most-selective-first
   without perturbing a single output bit.

   A match that the frozen snapshot misses (its facts were derived
   later in the same round) is re-discovered through the next round's
   delta, so the fixpoint is unchanged; rules with aggregates are
   order-sensitive and always evaluate sequentially against the live
   store, at their program position inside the merge sweep. *)

type candidate = {
  cd_vals : int array;      (* needed_vars binding ids, positionally *)
  cd_key : int array;       (* insertion-seq vector, written Pos order *)
  cd_parents : (string * Database.ifact) list;  (* body-fact trail *)
  cd_spill : (int * Value.t) list;
  (* worker-local scratch ids appearing in [cd_vals] with their values,
     in first-use order; the merge re-interns them sequentially and
     rewrites the negative ids before firing *)
}

(* lexicographic; vectors of one (rule, literal) group share a length *)
let compare_keys ka kb =
  let n = Array.length ka in
  let rec go i =
    if i >= n then 0
    else
      let c = Int.compare ka.(i) kb.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_candidates a b = compare_keys a.cd_key b.cd_key

type work_item = {
  w_prep : prepared;
  w_lit : int;                   (* index of the delta-driven literal *)
  w_order : int list;            (* literal evaluation order (a plan, or
                                    the written order) *)
  w_first : bool array;          (* its first-witness literals *)
  w_weight : int;                (* estimated probe volume, for
                                    heaviest-first pool scheduling *)
  w_facts : Database.ifact list; (* its delta chunk, chronological *)
  w_offset : int;                (* chunk start within the round delta *)
}

type work_result = {
  wr_cands : candidate list;  (* emission order *)
  wr_probes : int;
  wr_time : float;
}

(* Raised (on the caller domain) when a worker observed cancellation or
   an expired deadline mid-round. Nothing has been merged at that point:
   the whole round's candidates are discarded, so the database is back
   at the previous round boundary — a deterministic state whatever
   subset of work items the workers had managed to evaluate. *)
exception Round_aborted

(* Runs on a worker domain: read-only on the frozen database, all
   mutable state (env, counters, trail, sort key, delta index) is local
   to the item. *)
let eval_work_item (main : run_state) (w : work_item) : work_result =
  let t0 = Kgm_telemetry.Clock.now () in
  let st = walk_state main.db ~keep_trail:main.keep_trail in
  let prep = w.w_prep in
  let keyv = sort_key prep in
  let dg = delta_group ~offset:w.w_offset w.w_facts in
  let buf = ref [] in
  let env = env_create () in
  walk st env prep ~order:w.w_order ~delta:(Some (w.w_lit, dg))
    ~first:w.w_first ~keyv ~emit:(fun () ->
      let vals =
        Array.map
          (fun v ->
            match env_lookup env v with
            | Some id -> id
            | None -> Kgm_error.reason_error "unbound head variable %s" v)
          prep.needed_vars
      in
      (* scratch ids escaping in the candidate: ship their values so
         the merge can re-intern them *)
      let spill = ref [] in
      Array.iter
        (fun id ->
          if id < 0 && not (List.mem_assoc id !spill) then
            spill := (id, Intern.Scratch.resolve st.sc id) :: !spill)
        vals;
      buf :=
        { cd_vals = vals; cd_key = Array.copy keyv;
          cd_parents = trail_parents st; cd_spill = List.rev !spill }
        :: !buf);
  { wr_cands = List.rev !buf; wr_probes = st.cur.c_probes;
    wr_time = Kgm_telemetry.Clock.now () -. t0 }

(* Merge phase: rebind a candidate's head variables and fire as usual
   (chase check, null invention, support) against the live store. *)
let fire_candidate st env (prep : prepared) cand ~on_new =
  let mark = env_mark env in
  (* sequential: re-intern the worker's scratch values (in the
     candidate's first-use order — candidates themselves fire in the
     deterministic sorted order, so dictionary growth is deterministic
     too) and rewrite the negative ids *)
  let vals =
    if cand.cd_spill = [] then cand.cd_vals
    else begin
      let remap =
        List.map
          (fun (sid, v) -> (sid, Intern.intern (Database.dict st.db) v))
          cand.cd_spill
      in
      Array.map
        (fun id -> if id < 0 then List.assoc id remap else id)
        cand.cd_vals
    end
  in
  Array.iteri (fun i id -> env_bind env prep.needed_vars.(i) id) vals;
  st.fact_trail <- cand.cd_parents;
  fire st env prep ~on_new;
  st.fact_trail <- [];
  env_undo env mark

(* ------------------------------------------------------------------ *)
(* Delta-first aggregate rounds.

   A monotonic-aggregate rule evaluates a delta round in written order
   on the live store: when the delta literal is not its first positive
   literal, the walk scans that outer literal whole — every [controls]
   fact, for a batch that seeds one [own] fact. Such a round may instead
   collect the matches of the aggregate's prefix (the literals before
   it) delta-first, in the planner's order, sort them on their written
   insertion-seq vectors and replay the aggregate literal and the
   suffix from each, in that order, firing as the written walk does.

   Nothing observable moves when
   - no prefix literal but the outermost positive one [o] reads what
     the stratum derives ([live]): the written walk probes [o] once,
     before anything fires, and reads the round delta at the delta
     literal, so every prefix literal it reads holds still under it and
     it meets exactly the matches a collection made before firing
     meets, emitting them in the order of their vectors;
   - the prefix assigns nothing: the collection interns no value the
     written walk would intern between firings.
   First-witness flags for the collection's order may keep fewer
   witnesses of a don't-care literal than the written walk meets; the
   surplus ones re-offer a contributor key already folded and stop at
   the aggregate, and the sort puts the lowest witness, the one the
   written walk folds, first. Facts, insertion order, nulls, support
   entries and accumulators are the written walk's; only the probes
   fall. The replay pushes the prefix facts onto the trail in written
   order, so a recorded derivation names the same parents.

   The collection pays a probe per delta fact and literal, so it runs
   only when that is estimated cheaper than the written walk's outer
   scan ({!delta_first_cheaper}): a delta as large as the store it
   joins is cheaper walked in written order. *)

(* [Some (j, o)] when a delta round of [prep] over literal [dlit] may
   collect delta-first: [j] its first aggregate literal (monotonic,
   after [dlit]), [o] its outermost positive literal (not [dlit]) *)
let delta_first_prefix (prep : prepared) ~dlit ~live =
  let n = Array.length prep.cbody in
  let rec find p k =
    if k >= n then None else if p prep.cbody.(k) then Some k else find p (k + 1)
  in
  match
    ( prep.strat_agg_index,
      find (function CAgg _ -> true | _ -> false) 0,
      find (function CPos _ -> true | _ -> false) 0 )
  with
  | None, Some j, Some o when o < dlit && dlit < j ->
      let still k =
        match prep.cbody.(k) with
        | CAssign _ -> false
        | CPos a | CNeg a -> k = o || k = dlit || not (List.mem a.ca_pred live)
        | CCond _ | CAgg _ -> true
      in
      if List.for_all still (List.init j Fun.id) then Some (j, o) else None
  | _ -> None

(* The collection's estimated probe volume against [limit], the written
   walk's outer scan: per delta fact, one for the fact and, for every
   other positive prefix literal, the index group its constants and the
   delta literal's bindings select ({!Database.probe_size}) — the whole
   predicate where they select nothing, an overestimate for literals
   bound through others. Literals the delta leaves unbound are charged
   first, so a round that cannot win builds no index to find out; the
   sum stops once it reaches [limit]. *)
let delta_first_cheaper st (prep : prepared) ~dlit ~j ~limit (dg : delta_group) =
  let da = match prep.cbody.(dlit) with CPos a -> a | _ -> assert false in
  let dvars =
    Array.fold_left
      (fun acc t -> match t with CVar x -> x :: acc | CConst _ -> acc)
      [] da.ca_args
  in
  let selected (a : catom) =
    Array.exists
      (function CConst _ -> true | CVar x -> List.mem x dvars)
      a.ca_args
  in
  let others =
    List.filter_map
      (fun k ->
        match prep.cbody.(k) with
        | CPos a when k <> dlit -> Some a
        | _ -> None)
      (List.init j Fun.id)
  in
  let unbound, bound = List.partition (fun a -> not (selected a)) others in
  let per_fact =
    List.fold_left (fun acc a -> acc + Database.count st.db a.ca_pred) 1 unbound
  in
  let env = env_create () in
  let rec go cost = function
    | [] -> cost < limit
    | (_, (f : Database.ifact)) :: rest ->
        let cost = cost + per_fact in
        if cost >= limit then false
        else if Array.length f <> Array.length da.ca_args then go cost rest
        else begin
          let mark = env_mark env in
          let cost =
            if unify env da.ca_args f 0 then
              List.fold_left
                (fun cost (a : catom) ->
                  let positions, key = bound_key env a in
                  cost + Database.probe_size st.db a.ca_pred positions key)
                cost bound
            else cost
          in
          env_undo env mark;
          go cost rest
        end
  in
  go 0 dg.dg_facts

(* One delta round of [prep] over literal [dlit], delta-first, when
   {!delta_first_prefix} allows it and {!delta_first_cheaper} says so;
   [false], leaving the round to the written walk, otherwise *)
let eval_agg_delta_first st (prep : prepared) ~dlit ~live (dg : delta_group)
    ~on_new =
  match delta_first_prefix prep ~dlit ~live with
  | None -> false
  | Some (j, o) ->
      let n = Array.length prep.cbody in
      let written = List.init n Fun.id in
      let first_written =
        first_witness st prep ~order:written ~delta_lit:(Some dlit) ~live
      in
      let outer = match prep.cbody.(o) with CPos a -> a | _ -> assert false in
      (* the written walk's outer scan: nothing is bound at [o] but its
         constants, and a first-witness [o] stops at one fact *)
      let limit =
        if o < Array.length first_written && first_written.(o) then 1
        else
          let positions, key = bound_key (env_create ()) outer in
          Database.probe_size st.db outer.ca_pred positions key
      in
      delta_first_cheaper st prep ~dlit ~j ~limit dg
      && begin
        let prefix = List.filteri (fun k _ -> k < j) prep.rule.Rule.body in
        let plan =
          Planner.plan_rule
            ~count:(fun p -> Database.count st.db p)
            ~delta_lit:dlit
            { prep.rule with Rule.body = prefix }
        in
        let vars = Array.of_list (Rule.body_vars prefix) in
        let atoms =
          List.filter_map
            (fun k -> match prep.cbody.(k) with CPos a -> Some a | _ -> None)
            (List.init j Fun.id)
        in
        let n_atoms = List.length atoms in
        timed_rule st prep (fun _ ->
            let env = env_create () and keyv = sort_key prep in
            let matches = ref [] in
            walk st env prep ~order:plan.Planner.order ~delta:(Some (dlit, dg))
              ~first:
                (first_witness st prep ~order:plan.Planner.order
                   ~delta_lit:(Some dlit) ~live:[])
              ~keyv
              ~emit:(fun () ->
                let ids =
                  Array.map
                    (fun v ->
                      match env_lookup env v with
                      | Some id -> id
                      | None ->
                          Kgm_error.reason_error "unbound prefix variable %s" v)
                    vars
                in
                matches := (Array.copy keyv, ids) :: !matches);
            let matches = Array.of_list !matches in
            Array.sort (fun (a, _) (b, _) -> compare_keys a b) matches;
            let suffix = List.init (n - j) (fun k -> j + k) in
            Array.iter
              (fun (_, ids) ->
                let mark = env_mark env in
                Array.iteri (fun k id -> env_bind env vars.(k) id) ids;
                if st.keep_trail then
                  List.iter
                    (fun a -> trail_push st a.ca_pred (ground_atom env a))
                    atoms;
                walk st env prep ~order:suffix ~delta:None ~first:first_written
                  ~keyv ~emit:(fun () -> fire st env prep ~on_new);
                if st.keep_trail then st.trail_len <- st.trail_len - n_atoms;
                env_undo env mark)
              matches);
        true
      end

let eval_delta_round st pool (rules : prepared list) ~use_planner ~cancel
    ~tok_status ~retries ~current ~live ~on_new =
  (* 1. deterministic (rule, literal, chunk) work-item order; results
     are chunking-invariant (the merge sorts each (rule, literal) group
     on insertion-seq vectors), so the chunk size is free to follow the
     pool size for load balancing. One body plan per (rule, delta
     literal), recomputed here from the live cardinalities of this
     round boundary; with the planner off every item evaluates in
     written order. *)
  let planner_on = use_planner in
  let plans : (int * int, Planner.plan) Hashtbl.t = Hashtbl.create 16 in
  let items = ref [] in
  List.iter
    (fun (prep : prepared) ->
      if not prep.has_agg then
        List.iteri
          (fun i lit ->
            match lit with
            | Rule.Pos (a : Rule.atom) -> (
                match Hashtbl.find_opt current a.Rule.pred with
                | Some fl ->
                    let facts = Array.of_list (List.rev !fl) in
                    let len = Array.length facts in
                    let plan =
                      if planner_on then
                        Planner.plan_rule
                          ~count:(fun p -> Database.count st.db p)
                          ~delta_lit:i prep.rule
                      else Planner.written ~delta_lit:i prep.rule
                    in
                    Hashtbl.replace plans (prep.rule_id, i) plan;
                    (* workers walk the frozen store: nothing is live *)
                    let first =
                      first_witness st prep ~order:plan.Planner.order
                        ~delta_lit:(Some i) ~live:[]
                    in
                    let chunk = Kgm_pool.chunk_size_for pool ~len in
                    let n_chunks = (len + chunk - 1) / chunk in
                    for c = 0 to n_chunks - 1 do
                      let lo = c * chunk in
                      let sz = min chunk (len - lo) in
                      items :=
                        { w_prep = prep; w_lit = i;
                          w_order = plan.Planner.order; w_first = first;
                          w_weight = plan.Planner.cost * sz;
                          w_facts = Array.to_list (Array.sub facts lo sz);
                          w_offset = lo }
                        :: !items
                    done
                | None -> ())
            | _ -> ())
          prep.rule.Rule.body)
    rules;
  let items = Array.of_list (List.rev !items) in
  if Journal.enabled st.jr then
    Hashtbl.iter
      (fun (rule_id, lit) (p : Planner.plan) ->
        let prep = List.find (fun pr -> pr.rule_id = rule_id) rules in
        Journal.emit st.jr "plan"
          [ ("round", J.Int st.round);
            ("rule", J.Str prep.head_label);
            ("delta_lit", J.Int lit);
            ("cost", J.Int p.Planner.cost);
            ("reordered", J.Bool p.Planner.reordered);
            ("order", J.Arr (List.map (fun i -> J.Int i) p.Planner.order)) ])
      plans;
  if Kgm_telemetry.enabled st.tele && Hashtbl.length plans > 0 then begin
    Kgm_telemetry.count st.tele ~by:(Hashtbl.length plans) "planner.plans";
    let reordered =
      Hashtbl.fold
        (fun _ (p : Planner.plan) n -> if p.Planner.reordered then n + 1 else n)
        plans 0
    in
    if reordered > 0 then
      Kgm_telemetry.count st.tele ~by:reordered "planner.plans.reordered"
  end;
  (* 2. match on the pool against the frozen store. Each worker polls
     the cancellation token per work item; once it trips, remaining
     items are skipped (cheaply, returning no candidates) and the whole
     round is aborted after the batch joins. Worker bodies additionally
     run under a short retry loop so injected transient faults
     ("worker" site) are absorbed instead of killing the run. *)
  let aborted = Atomic.make false in
  let empty_result = { wr_cands = []; wr_probes = 0; wr_time = 0. } in
  let results =
    if Array.length items = 0 then []
    else begin
      (* build exactly the indexes the items will probe: every plan —
         planned or written-order — records its probe patterns along
         its own evaluation order (the delta literal never probes the
         store) *)
      Hashtbl.iter
        (fun _ (p : Planner.plan) ->
          List.iter
            (fun (pred, pat) -> Database.prepare_index st.db pred pat)
            p.Planner.patterns)
        plans;
      Database.freeze st.db;
      let t0 = Kgm_telemetry.Clock.now () in
      let results =
        Fun.protect
          ~finally:(fun () -> Database.thaw st.db)
          (fun () ->
            Kgm_pool.run_weighted pool
              ~weights:(Array.map (fun w -> w.w_weight) items)
              (Array.map
                 (fun w () ->
                   if tok_status () <> `Ok then begin
                     Atomic.set aborted true;
                     empty_result
                   end
                   else
                     Kgm_resilience.Retry.with_backoff ~attempts:3
                       ~base_s:0.0005 ~cancel
                       ~on_retry:(fun ~attempt exn ->
                         Atomic.incr retries;
                         (* cross-domain emit: the journal serializes *)
                         if Journal.enabled st.jr then
                           Journal.emit st.jr "worker.retry"
                             [ ("round", J.Int st.round);
                               ("attempt", J.Int attempt);
                               ("error", J.Str (Printexc.to_string exn)) ])
                       (fun () ->
                         Kgm_resilience.Faults.inject "worker";
                         eval_work_item st w))
                 items))
      in
      if Kgm_telemetry.enabled st.tele then
        Kgm_telemetry.record_span st.tele ~cat:"round"
          ~args:
            [ ("items", string_of_int (Array.length items));
              ("jobs", string_of_int (Kgm_pool.size pool)) ]
          "round.match" ~start:t0 ~stop:(Kgm_telemetry.Clock.now ());
      results
    end
  in
  if Atomic.get aborted then raise Round_aborted;
  let pairs = List.combine (Array.to_list items) results in
  if Journal.enabled st.jr then
    List.iter
      (fun ((w : work_item), (r : work_result)) ->
        Journal.emit st.jr "chunk"
          [ ("round", J.Int st.round);
            ("rule", J.Str w.w_prep.head_label);
            ("delta_lit", J.Int w.w_lit);
            ("offset", J.Int w.w_offset);
            ("size", J.Int (List.length w.w_facts));
            ("candidates", J.Int (List.length r.wr_cands));
            ("probes", J.Int r.wr_probes);
            ("time_s", J.Float r.wr_time) ])
      pairs;
  (* 3. sequential merge sweep in program order *)
  List.iter
    (fun (prep : prepared) ->
      if prep.has_agg then
        (* order-sensitive: evaluate directly against the live store, in
           written order (the delta still probes through a hash index),
           or delta-first where that emits in the same order *)
        List.iteri
          (fun i lit ->
            match lit with
            | Rule.Pos (a : Rule.atom) -> (
                match Hashtbl.find_opt current a.Rule.pred with
                | Some fl ->
                    let dg = delta_group (List.rev !fl) in
                    if
                      not
                        (use_planner
                        && eval_agg_delta_first st prep ~dlit:i ~live dg
                             ~on_new)
                    then eval_rule st prep ~delta:(Some (i, dg)) ~live ~on_new
                | None -> ())
            | _ -> ())
          prep.rule.Rule.body
      else
        timed_rule st prep @@ fun ctr ->
        let env = env_create () in
        (* per delta literal (ascending): gather every chunk's
           candidates and fire them sorted on the insertion-seq vectors
           — the written-order emission sequence over the whole round
           delta, independent of chunking and of the evaluation plan *)
        List.iteri
          (fun i lit ->
            match lit with
            | Rule.Pos _ ->
                let cands = ref [] in
                List.iter
                  (fun ((w : work_item), (r : work_result)) ->
                    if w.w_prep.rule_id = prep.rule_id && w.w_lit = i then begin
                      ctr.c_probes <- ctr.c_probes + r.wr_probes;
                      ctr.c_time <- ctr.c_time +. r.wr_time;
                      cands := List.rev_append r.wr_cands !cands
                    end)
                  pairs;
                if !cands <> [] then begin
                  let arr = Array.of_list !cands in
                  Array.sort compare_candidates arr;
                  Array.iter (fun c -> fire_candidate st env prep c ~on_new) arr
                end
            | _ -> ())
          prep.rule.Rule.body)
    rules

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume.

   At configurable round intervals (and at any clean limit stop) the
   engine serializes its complete semi-naive state to a versioned
   snapshot: the fact store in per-predicate insertion order, the
   current delta, the global null counter, per-rule counters, aggregate
   states, derivation support, and the (stratum, round) position. Resuming
   restores all of it and re-enters the strata loop at the saved
   position, so a resumed run replays the exact rounds an uninterrupted
   run would have executed — facts, null numbering and per-rule counters
   are bit-for-bit identical, at every [jobs] value (the merge order is
   schedule-independent, see above). *)

type checkpoint = {
  ck_dir : string;
  ck_every : int;   (** write a snapshot every [ck_every] completed rounds *)
  ck_label : string;
  ck_keep : int;    (** generations retained after each write; 0 = all *)
}

let default_checkpoint_every = 8

let checkpoint ?(every = default_checkpoint_every) ?(keep = 0)
    ?(label = "chase") dir =
  { ck_dir = dir; ck_every = max 1 every; ck_label = label; ck_keep = keep }

(* v5: facts and deltas are stored as interned [int array]s together
   with the dictionary (p_dict); loading re-interns the dictionary into
   the target database and remaps the ids. v4 dropped v3's
   first-derivation table from the payload, v5 the support's null ->
   creating-parents table (the entries name them); any other version is
   rejected by [Snapshot.load]'s version check, so an old file fails
   with a Storage error instead of being unmarshalled as the wrong
   type. *)
let ck_version = 5
let ck_kind label = "chase-" ^ label

let latest_checkpoint ?(label = "chase") dir =
  Kgm_resilience.Snapshot.latest ~dir ~kind:(ck_kind label)

(* Marshal-friendly image of the loop state. Facts and deltas are kept
   in chronological (insertion) order so replaying them through
   [Database.add] reproduces per-predicate order exactly. *)
type ck_payload = {
  p_fingerprint : string;  (* digest of the program text: a checkpoint
                              only resumes the program that wrote it *)
  p_stratum : int;
  p_round0_done : bool;    (* false = the stratum's full round is pending *)
  p_rounds : int;
  p_deltas : int list;     (* reverse chronological, as the loop keeps it *)
  p_added : int;
  p_nulls : int;           (* global null counter *)
  p_dict : Value.t array;  (* interned values in id order; [p_facts] and
                              [p_delta] ids index into it *)
  p_facts : (string * Database.ifact list) list;
  p_delta : (string * Database.ifact list) list;
  p_ctrs : rule_ctr array;
  p_agg : (int * agg_state) list;
  p_sup : Support.t option;
      (* the full derivation support, so a resumed run stays
         incrementally maintainable and explain-able. Pure data
         (hashtables, refs, lists of values), so Marshal round-trips
         it; per-fact entry lists are preserved verbatim, which keeps
         explanation output identical across resume. *)
}

let program_fingerprint program =
  Digest.to_hex (Digest.string (Rule.program_to_string program))

(* ------------------------------------------------------------------ *)
(* The chase loop.

   One semi-naive loop serves both entry points; they differ only in
   how each stratum's first round is formed. [run] starts every stratum
   with round 0, a full evaluation of its rules. [run_delta] is a
   maintenance pass over a saturated store: a stratum named by
   [wholesale] starts with round 0 as well, every other stratum with a
   delta round over the seeds plus everything earlier strata of the
   same pass derived. Under semi-naive completeness that first delta
   round derives precisely the consequences of the seeds, which is what
   makes maintenance cost proportional to the delta instead of the
   database. Later rounds range over the stratum's own delta either
   way, through the same planner, pool, schedule-independent merge and
   budget machinery — the determinism invariants are the loop's, not
   the entry point's. *)

type start =
  | Full
  | Seeded of {
      seed : (string * Database.fact list) list;
      wholesale : int -> bool;
      on_new : (string -> Database.fact -> unit) option;
    }

let chase start ?(options = default_options) ?support
    ?(telemetry = Kgm_telemetry.null)
    ?(journal = Kgm_telemetry.Journal.null)
    ?(cancel = Kgm_resilience.Token.none) ?checkpoint ?resume_from
    ?rule_ids ?(agg_init = []) ?pool (program : Rule.program) db =
  let seeded, seed, wholesale, on_new =
    match start with
    | Full -> (false, [], (fun _ -> true), None)
    | Seeded { seed; wholesale; on_new } -> (true, seed, wholesale, on_new)
  in
  Kgm_telemetry.with_span telemetry ~cat:"engine"
    ~args:[ ("rules", string_of_int (List.length program.Rule.rules)) ]
    (if seeded then "engine.run_delta" else "engine.run")
  @@ fun () ->
  let t0 = Kgm_telemetry.Clock.now () in
  (* [options.provenance] retains the support graph even when the caller
     did not pass one; it is returned in [stats.support] *)
  let support =
    match support with
    | Some _ -> support
    | None -> if options.provenance then Some (Support.create ()) else None
  in
  (match Analysis.safety_report program with
   | [] -> ()
   | errs ->
       Kgm_error.validate_error "unsafe program:@ %s" (String.concat "; " errs));
  let analysis = Analysis.stratify program in
  let fingerprint = lazy (program_fingerprint program) in
  let ck_label =
    match checkpoint with Some c -> c.ck_label | None -> "chase"
  in
  (* a [deadline_s] option composes with whatever token the caller
     passed (which may carry its own deadline) *)
  let deadline_tok =
    match options.deadline_s with
    | Some d -> Kgm_resilience.Token.create ~deadline_s:d ()
    | None -> Kgm_resilience.Token.none
  in
  let tok_status () =
    match Kgm_resilience.Token.status cancel with
    | `Ok -> Kgm_resilience.Token.status deadline_tok
    | s -> s
  in
  (* Load a snapshot and remap its ids through its serialized
     dictionary into [db]'s, so the returned payload's ids are valid in
     [db] and [p_dict] is spent. *)
  let resume : ck_payload option =
    Option.map
      (fun path ->
        let (p : ck_payload) =
          Kgm_resilience.Snapshot.load ~kind:(ck_kind ck_label)
            ~version:ck_version ~path
        in
        if p.p_fingerprint <> Lazy.force fingerprint then
          Kgm_error.validate_error
            "checkpoint %s was written by a different program (fingerprint \
             mismatch)"
            path;
        let dict = Database.dict db in
        let remap = Array.map (fun v -> Intern.intern dict v) p.p_dict in
        let rf (pr, fl) =
          (pr, List.map (fun f -> Array.map (fun id -> remap.(id)) f) fl)
        in
        { p with
          p_dict = [||];
          p_facts = List.map rf p.p_facts;
          p_delta = List.map rf p.p_delta })
      resume_from
  in
  (* a seeded pass runs over a store that already holds them *)
  if not seeded then
    List.iter
      (fun (pred, args) -> ignore (Database.add db pred (Array.of_list args)))
      program.Rule.facts;
  let n_rules = List.length program.Rule.rules in
  let st =
    { (walk_state db ~keep_trail:(Option.is_some support)) with
      opts = options; agg_states = Hashtbl.create 16; sup = support;
      tele = telemetry; jr = journal;
      ctrs = Array.init (max 1 n_rules) (fun _ -> fresh_ctr ()) }
  in
  (* monotonic aggregates fold into the caller's accumulators when it
     passes them: a seeded pass then neither re-counts old contributions
     nor misses thresholds already crossed, and a maintenance layer
     owns the tables every later pass extends *)
  List.iter (fun (id, s) -> Hashtbl.replace st.agg_states id s) agg_init;
  (match resume with
   | None -> ()
   | Some p ->
       (* replay the snapshot: facts in insertion order (dedup against
          whatever the caller pre-loaded), exact null counter, counters,
          aggregate and support state *)
       List.iter
         (fun (pred, facts) ->
           List.iter (fun f -> ignore (Database.add_i db pred f)) facts)
         p.p_facts;
       Atomic.set global_null_counter p.p_nulls;
       st.added <- p.p_added;
       Array.iteri
         (fun i c -> if i < Array.length st.ctrs then st.ctrs.(i) <- c)
         p.p_ctrs;
       List.iter (fun (id, s) -> Hashtbl.replace st.agg_states id s) p.p_agg;
       (match support, p.p_sup with
        | Some into, Some src -> Support.absorb ~into src
        | _ -> ()));
  let seed =
    List.map (fun (p, fs) -> (p, List.map (Database.intern_fact db) fs)) seed
  in
  if Journal.enabled journal then
    Journal.emit journal "run.start"
      ([ ("mode", J.Str (if seeded then "delta" else "chase"));
         ("rules", J.Int n_rules);
         ("strata", J.Int (List.length analysis.Analysis.strata));
         ("jobs", J.Int options.jobs);
         ("planner", J.Bool options.planner);
         ("provenance", J.Bool (Option.is_some support)) ]
      @
      if seeded then
        let n = List.fold_left (fun n (_, fs) -> n + List.length fs) 0 seed in
        [ ("seed", J.Int n) ]
      else [ ("resumed", J.Bool (Option.is_some resume)) ]);
  let prepared =
    List.mapi
      (fun i r ->
        prepare
          ?rid:(Option.map (fun a -> a.(i)) rule_ids)
          (Database.dict db) i
          (if options.reorder_body then reorder_rule db r else r))
      program.Rule.rules
  in
  let rule_strata = Analysis.rule_strata analysis program in
  let n_strata = List.length analysis.Analysis.strata in
  (* a seeded pass is delta rounds by construction, and maintenance
     deltas are tiny relative to the saturated store: it always plans
     (written-order plans probe the whole closure once per seed fact)
     and is always semi-naive. Planning is pure scheduling — outputs are
     unchanged — so the ablation contrast is confined to [run]. *)
  let planned = options.planner || seeded in
  let semi_naive = options.semi_naive || seeded in
  if Kgm_telemetry.enabled telemetry && planned then begin
    Kgm_telemetry.count telemetry ~by:n_strata "planner.strata";
    let nrec =
      Array.fold_left
        (fun acc r -> if r then acc + 1 else acc)
        0 analysis.Analysis.recursive
    in
    if nrec > 0 then
      Kgm_telemetry.count telemetry ~by:nrec "planner.strata.recursive"
  end;
  let rounds = ref (match resume with Some p -> p.p_rounds | None -> 0) in
  (* per-round delta sizes, reverse chronological *)
  let deltas = ref (match resume with Some p -> p.p_deltas | None -> []) in
  let start_stratum = match resume with Some p -> p.p_stratum | None -> 0 in
  let retries = Atomic.make 0 in
  let cks_written = ref 0 and cks_failed = ref 0 in
  let last_ck = ref None in
  let write_checkpoint ~stratum ~round0_done delta =
    match checkpoint with
    | None -> ()
    | Some cfg ->
        let payload =
          { p_fingerprint = Lazy.force fingerprint;
            p_stratum = stratum;
            p_round0_done = round0_done;
            p_rounds = !rounds;
            p_deltas = !deltas;
            p_added = st.added;
            p_nulls = Atomic.get global_null_counter;
            p_dict = Intern.export (Database.dict db);
            p_facts =
              List.map
                (fun pred -> (pred, Database.facts_i db pred))
                (Database.predicates db);
            p_delta =
              Hashtbl.fold (fun pred l acc -> (pred, List.rev !l) :: acc) delta []
              |> List.sort compare;
            p_ctrs = st.ctrs;
            p_agg =
              Hashtbl.fold (fun id s acc -> (id, s) :: acc) st.agg_states []
              |> List.sort compare;
            p_sup = st.sup }
        in
        let path =
          Kgm_resilience.Snapshot.path ~dir:cfg.ck_dir
            ~kind:(ck_kind cfg.ck_label) ~seq:!rounds
        in
        (* graceful degradation: a transient write fault is retried, a
           persistent one costs only this snapshot, never the chase *)
        (try
           Kgm_resilience.Retry.with_backoff ~attempts:3 ~base_s:0.002
             (fun () ->
               Kgm_resilience.Snapshot.save ~kind:(ck_kind cfg.ck_label)
                 ~version:ck_version ~path payload);
           incr cks_written;
           last_ck := Some path;
           (* rotate right after a successful write: the newest
              retained generation is the one we just renamed into
              place, so a recovery always has a valid file to start
              from *)
           if cfg.ck_keep > 0 then
             ignore
               (Kgm_resilience.Snapshot.gc ~dir:cfg.ck_dir
                  ~kind:(ck_kind cfg.ck_label) ~keep:cfg.ck_keep);
           if Journal.enabled journal then
             Journal.emit journal "checkpoint.write"
               [ ("round", J.Int !rounds);
                 ("stratum", J.Int stratum);
                 ("path", J.Str path) ]
         with _ ->
           incr cks_failed;
           if Journal.enabled journal then
             Journal.emit journal "checkpoint.fail"
               [ ("round", J.Int !rounds); ("path", J.Str path) ])
  in
  (* everything a seeded pass derived, chronological across strata:
     part of the first round of every later seeded stratum (in [run]
     the round-0 full evaluation covers this; here nothing else would) *)
  let derived : (string * Database.ifact) list ref = ref [] in
  let stopped = ref None in
  (* one pool for the whole run, the caller's when it passes one (and
     then not shut down here); a pool starts its jobs - 1 domains at the
     first round with more than one work item, so a run with none (or
     jobs = 1) evaluates every round inline *)
  let pool, owned =
    match pool with
    | Some p -> (p, false)
    | None -> (Kgm_pool.create (max 1 options.jobs), true)
  in
  let spawned_before = Kgm_pool.spawned pool in
  Fun.protect ~finally:(fun () -> if owned then Kgm_pool.shutdown pool)
  @@ fun () ->
  (try
     for s = start_stratum to n_strata - 1 do
       let rules_here =
         List.filter (fun p -> rule_strata.(p.rule_id) = s) prepared
       in
       if rules_here <> [] then begin
         Kgm_telemetry.with_span telemetry ~cat:"engine"
           ~args:[ ("rules", string_of_int (List.length rules_here)) ]
           (Printf.sprintf "stratum:%d" s)
         @@ fun () ->
         let in_stratum =
           match List.nth_opt analysis.Analysis.strata s with
           | Some preds -> preds
           | None -> []
         in
         (* the next round's input; fact lists are kept reversed, the
            convention [eval_delta_round] expects *)
         let delta : (string, Database.ifact list ref) Hashtbl.t =
           Hashtbl.create 8
         in
         let push pred fact =
           match Hashtbl.find_opt delta pred with
           | Some l -> l := fact :: !l
           | None -> Hashtbl.add delta pred (ref [ fact ])
         in
         let record pred fact =
           if seeded then derived := (pred, fact) :: !derived;
           (* external observers stay value-level *)
           Option.iter (fun f -> f pred (Database.resolve_fact db fact)) on_new;
           if List.mem pred in_stratum then push pred fact
         in
         let delta_size () =
           Hashtbl.fold (fun _ l acc -> acc + List.length !l) delta 0
         in
         (* round 0 or the seeded round, whichever opens the stratum *)
         let first_pending = ref true in
         let full_first = wholesale s in
         (match resume with
          | Some p when s = p.p_stratum ->
              first_pending := not p.p_round0_done;
              List.iter
                (fun (pred, facts) ->
                  Hashtbl.replace delta pred (ref (List.rev facts)))
                p.p_delta
          | _ -> ());
         if not full_first then begin
           List.iter (fun (pred, facts) -> List.iter (push pred) facts) seed;
           List.iter (fun (pred, fact) -> push pred fact) (List.rev !derived)
         end;
         (* limit checks happen only here, at clean round boundaries;
            the "round" fault site models a crash at exactly this point *)
         let boundary_check () =
           Kgm_resilience.Faults.inject "round";
           (match tok_status () with
            | `Cancelled -> raise (Stop_chase (`Cancelled, true))
            | `Deadline -> raise (Stop_chase (`Deadline, true))
            | `Ok -> ());
           if !rounds >= options.max_rounds then
             raise (Stop_chase (`Rounds, true))
         in
         let round eval =
           boundary_check ();
           incr rounds;
           st.round <- !rounds;
           if Journal.enabled journal then
             Journal.emit journal "round.start"
               [ ("stratum", J.Int s); ("round", J.Int !rounds) ];
           let current = Hashtbl.copy delta in
           Hashtbl.reset delta;
           (try
              Kgm_telemetry.with_span telemetry ~cat:"round" "round" (fun () ->
                  eval current)
            with Round_aborted ->
              (* the aborted round never happened: restore its input
                 delta and stop at the previous boundary *)
              decr rounds;
              Hashtbl.reset delta;
              Hashtbl.iter (fun k v -> Hashtbl.replace delta k v) current;
              (match tok_status () with
               | `Cancelled -> raise (Stop_chase (`Cancelled, true))
               | _ -> raise (Stop_chase (`Deadline, true))));
           first_pending := false;
           deltas := delta_size () :: !deltas;
           if Journal.enabled journal then
             Journal.emit journal "round.end"
               [ ("stratum", J.Int s);
                 ("round", J.Int !rounds);
                 ("delta", J.Int (delta_size ()));
                 ("facts", J.Int (Database.total db)) ];
           match checkpoint with
           | Some cfg when !rounds mod cfg.ck_every = 0 ->
               write_checkpoint ~stratum:s ~round0_done:true delta
           | _ -> ()
         in
         let full_round _ =
           List.iter
             (fun p -> eval_rule st p ~delta:None ~live:in_stratum ~on_new:record)
             rules_here
         in
         let delta_round current =
           eval_delta_round st pool rules_here ~use_planner:planned ~cancel
             ~tok_status ~retries ~current ~live:in_stratum ~on_new:record
         in
         (* stratification dividend: a non-recursive stratum is an SCC
            group with no internal dependency edge, so none of its rules
            reads a predicate derived in this stratum — once its first
            round ran, a delta round could only rediscover its matches.
            Under semi-naive evaluation that round derives nothing, so
            skip it outright. (Naive mode re-evaluates everything each
            round and is left untouched.) *)
         let single_round =
           planned && semi_naive
           && not
                (s < Array.length analysis.Analysis.recursive
                 && analysis.Analysis.recursive.(s))
         in
         try
           if full_first && !first_pending then round full_round;
           while
             Hashtbl.length delta > 0 && (!first_pending || not single_round)
           do
             round (if semi_naive then delta_round else full_round)
           done;
           if Hashtbl.length delta > 0 && Kgm_telemetry.enabled telemetry then
             Kgm_telemetry.count telemetry "planner.rounds.skipped"
         with Stop_chase (l, clean) ->
           (* a clean stop is a round boundary: capture it so a later
              [~resume_from] continues exactly where this run stopped *)
           if clean then
             write_checkpoint ~stratum:s ~round0_done:(not !first_pending)
               delta;
           raise (Stop_chase (l, clean))
       end
     done
   with Stop_chase (l, clean) ->
     stopped := Some l;
     if Journal.enabled journal then
       Journal.emit journal "limit.stop"
         [ ("limit", J.Str (limit_name l));
           ("clean", J.Bool clean);
           ("round", J.Int !rounds) ]);
  let per_rule =
    List.map
      (fun (prep : prepared) ->
        let c = st.ctrs.(prep.rule_id) in
        { rs_id = prep.rule_id;
          rs_rule = Format.asprintf "%a" Rule.pp_rule prep.rule;
          rs_label = prep.head_label;
          rs_firings = c.c_firings;
          rs_matches = c.c_matches;
          rs_probes = c.c_probes;
          rs_nulls = c.c_nulls;
          rs_chase_hits = c.c_hits;
          rs_chase_misses = c.c_misses;
          rs_time_s = c.c_time })
      prepared
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 per_rule in
  let stats =
    { rounds = !rounds;
      new_facts = st.added;
      elapsed_s = Kgm_telemetry.Clock.now () -. t0;
      delta_sizes = List.rev !deltas;
      nulls_invented = sum (fun r -> r.rs_nulls);
      chase_hits = sum (fun r -> r.rs_chase_hits);
      chase_misses = sum (fun r -> r.rs_chase_misses);
      per_rule;
      stopped = !stopped;
      support = st.sup;
      negative_sums = List.sort_uniq Int.compare st.negative_sums }
  in
  if Journal.enabled journal then
    Journal.emit journal "run.end"
      [ ("mode", J.Str (if seeded then "delta" else "chase"));
        ("rounds", J.Int stats.rounds);
        ("new_facts", J.Int stats.new_facts);
        ("facts", J.Int (Database.total db));
        ("nulls", J.Int stats.nulls_invented);
        ("examined", J.Int st.examined);
        ("elapsed_s", J.Float stats.elapsed_s);
        ( "stopped",
          match stats.stopped with
          | Some l -> J.Str (limit_name l)
          | None -> J.Null ) ];
  if Kgm_telemetry.enabled telemetry then begin
    Kgm_telemetry.count telemetry ~by:stats.new_facts "engine.facts.new";
    Kgm_telemetry.count telemetry ~by:stats.rounds "engine.rounds";
    Kgm_telemetry.count telemetry ~by:stats.nulls_invented
      "engine.nulls.invented";
    Kgm_telemetry.count telemetry ~by:stats.chase_hits "engine.chase.hits";
    Kgm_telemetry.count telemetry ~by:stats.chase_misses "engine.chase.misses";
    Kgm_telemetry.count telemetry ~by:st.examined "engine.chase.examined";
    Kgm_telemetry.count telemetry
      ~by:(Kgm_pool.spawned pool - spawned_before)
      "engine.pool.spawned";
    if !cks_written > 0 then
      Kgm_telemetry.count telemetry ~by:!cks_written
        "resilience.checkpoints.written";
    if !cks_failed > 0 then
      Kgm_telemetry.count telemetry ~by:!cks_failed
        "resilience.checkpoints.failed";
    let r = Atomic.get retries in
    if r > 0 then
      Kgm_telemetry.count telemetry ~by:r "resilience.worker.retries";
    match stats.stopped with
    | Some l -> Kgm_telemetry.count telemetry ("engine.stopped." ^ limit_name l)
    | None -> ()
  end;
  (match !stopped, options.on_limit with
   | Some l, `Raise ->
       let ctx =
         (match st.trip_rule with Some r -> [ ("rule", r) ] | None -> [])
         @ [ ("round", string_of_int !rounds) ]
         @ (match !last_ck with
            | Some p -> [ ("checkpoint", p) ]
            | None -> [])
       in
       (match l with
        | `Facts ->
            Kgm_error.reason_error_ctx ctx
              "fact budget exceeded (%d facts): non-terminating chase?"
              options.max_facts
        | `Rounds -> Kgm_error.reason_error_ctx ctx "round budget exceeded"
        | `Deadline -> Kgm_error.reason_error_ctx ctx "deadline exceeded"
        | `Cancelled ->
            Kgm_error.reason_error_ctx
              (("interrupted", "cancelled") :: ctx)
              "interrupted")
   | _ -> ());
  stats

let run ?options ?support ?telemetry ?journal ?cancel ?checkpoint ?resume_from
    ?rule_ids ?agg_init ?pool program db =
  chase Full ?options ?support ?telemetry ?journal ?cancel ?checkpoint
    ?resume_from ?rule_ids ?agg_init ?pool program db

let run_delta ?options ?support ?telemetry ?journal ?cancel ?on_new
    ?rule_ids ?agg_init ?pool ?(wholesale = fun _ -> false) program db ~seed =
  chase (Seeded { seed; wholesale; on_new }) ?options ?support ?telemetry
    ?journal ?cancel ?rule_ids ?agg_init ?pool program db

(* Human-readable planning report: what [run] would decide for
   [program] over the current contents of [db] — the strata in
   execution order with their recursion flags, and for every rule of a
   recursive stratum the join order chosen for each in-stratum delta
   literal. Cardinalities are read live from [db], so load the input
   facts before asking for the report. *)
let pp_plan_report ?(options = default_options) ppf (program : Rule.program) db
    =
  let analysis = Analysis.stratify program in
  let rule_strata = Analysis.rule_strata analysis program in
  let count = Database.count db in
  List.iteri
    (fun s preds ->
      let recursive =
        s < Array.length analysis.Analysis.recursive
        && analysis.Analysis.recursive.(s)
      in
      Format.fprintf ppf "stratum %d%s: %s@." s
        (if recursive then " (recursive)" else "")
        (String.concat ", " preds);
      List.iteri
        (fun j (r : Rule.rule) ->
          if rule_strata.(j) = s then begin
            let r = if options.reorder_body then reorder_rule db r else r in
            Format.fprintf ppf "  %a@." Rule.pp_rule r;
            if not recursive then
              Format.fprintf ppf "    single round (non-recursive stratum)@."
            else if
              List.exists
                (function Rule.Agg _ -> true | _ -> false)
                r.Rule.body
            then
              Format.fprintf ppf
                "    written order (aggregate rule: emission order is \
                 semantic)@."
            else
              List.iteri
                (fun i lit ->
                  match lit with
                  | Rule.Pos (a : Rule.atom) when List.mem a.Rule.pred preds ->
                      let plan =
                        if options.planner then
                          Planner.plan_rule ~count ~delta_lit:i r
                        else Planner.written ~delta_lit:i r
                      in
                      Format.fprintf ppf "    delta %s[%d]: %a@." a.Rule.pred i
                        (Planner.pp ~delta_lit:i r)
                        plan
                  | _ -> ())
                r.Rule.body
          end)
        program.Rule.rules)
    analysis.Analysis.strata

let run_program ?options ?support ?telemetry ?journal ?cancel ?checkpoint
    ?resume_from program =
  let db = Database.create () in
  let stats =
    run ?options ?support ?telemetry ?journal ?cancel ?checkpoint ?resume_from
      program db
  in
  (db, stats)

let query db pred = Database.facts db pred

(** Facts of every @output-annotated predicate, in annotation order. *)
let outputs (program : Rule.program) db =
  List.filter_map
    (fun (a : Rule.annotation) ->
      match a.Rule.a_name, a.Rule.a_args with
      | "output", pred :: _ -> Some (pred, Database.facts db pred)
      | _ -> None)
    program.Rule.annotations

(* ------------------------------------------------------------------ *)
(* Fact-level explanation: bounded derivation trees over the support.

   The support records every derivation of every fact in a
   deterministic order (the merge phase emission order is
   schedule-independent, and checkpoints preserve per-fact entry lists
   verbatim), so picking the FIRST-recorded derivation at every node
   yields a tree that is bit-identical across [jobs], planner on/off,
   and checkpoint/resume. Parents always predate their fact in the
   first-recorded derivation, so the recursion is well-founded on
   acyclic data; cyclic ownership graphs are cut by the depth bound and
   the on-path cycle guard. *)

type explain_tree = {
  et_pred : string;
  et_fact : Database.fact;
  et_depth : int;  (* recursion depth of this node, root = 0 *)
  et_node : explain_node;
}

and explain_node =
  | Ground  (* no recorded derivation: extensional (or support is off) *)
  | Truncated  (* max_depth reached; the fact does have derivations *)
  | Cycle  (* fact already on the current path *)
  | Derived of explain_deriv

and explain_deriv = {
  ed_rule_id : int;
  ed_rule : string;  (* pretty-printed firing rule *)
  ed_subst : (string * Value.t) list;
      (* head-variable substitution grounding the head to the fact,
         existentials bound to the invented nulls; sorted by name *)
  ed_nulls : int list;  (* labeled nulls this derivation invented *)
  ed_premises : explain_tree list;  (* canonical parent order *)
}

let default_explain_depth = 32

(* the substitution under which some head atom of [r] grounds to
   [fact]: constants must coincide, variables bind consistently *)
let head_substitution (r : Rule.rule) pred (fact : Database.fact) =
  let try_atom (a : Rule.atom) =
    if a.Rule.pred <> pred || List.length a.Rule.args <> Array.length fact
    then None
    else begin
      let binds = Hashtbl.create 8 in
      let ok =
        List.for_all2
          (fun t v ->
            match t with
            | Term.Const c -> Value.equal c v
            | Term.Var x -> (
                match Hashtbl.find_opt binds x with
                | Some v' -> Value.equal v v'
                | None ->
                    Hashtbl.add binds x v;
                    true))
          a.Rule.args (Array.to_list fact)
      in
      if ok then
        Some
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) binds []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      else None
    end
  in
  Option.value ~default:[] (List.find_map try_atom r.Rule.head)

let explain_tree ?(max_depth = default_explain_depth) (sup : Support.t)
    (program : Rule.program) pred (fact : Database.fact) =
  let rules = Array.of_list program.Rule.rules in
  let rec go path depth pred fact =
    let node =
      match Support.entries sup pred fact with
      | [] -> Ground
      | entries ->
          if depth >= max_depth then Truncated
          else if List.exists (Support.parent_equal (pred, fact)) path then
            Cycle
          else begin
            (* entries are most-recent-first: the first-recorded
               derivation is the last *)
            let e = List.nth entries (List.length entries - 1) in
            let rule =
              if e.se_rule >= 0 && e.se_rule < Array.length rules then
                Some rules.(e.se_rule)
              else None
            in
            Derived
              { ed_rule_id = e.se_rule;
                ed_rule =
                  (match rule with
                   | Some r -> Format.asprintf "%a" Rule.pp_rule r
                   | None -> "<rule " ^ string_of_int e.se_rule ^ ">");
                ed_subst =
                  (match rule with
                   | Some r -> head_substitution r pred fact
                   | None -> []);
                ed_nulls = e.se_nulls;
                ed_premises =
                  List.map
                    (fun (pp, pf) -> go ((pred, fact) :: path) (depth + 1) pp pf)
                    e.se_parents }
          end
    in
    { et_pred = pred; et_fact = fact; et_depth = depth; et_node = node }
  in
  go [] 0 pred fact

let rec pp_explain_tree ppf (t : explain_tree) =
  let pp_fact ppf (p, f) =
    Format.fprintf ppf "%s(%s)" p
      (String.concat ", " (Array.to_list (Array.map Value.to_string f)))
  in
  Format.fprintf ppf "@[<v 2>%a" pp_fact (t.et_pred, t.et_fact);
  (match t.et_node with
   | Ground -> Format.fprintf ppf "  (ground)"
   | Truncated -> Format.fprintf ppf "  (depth limit)"
   | Cycle -> Format.fprintf ppf "  (cycle)"
   | Derived d ->
       Format.fprintf ppf "  <- %s" d.ed_rule;
       if d.ed_subst <> [] then
         Format.fprintf ppf "@,{%s}"
           (String.concat ", "
              (List.map
                 (fun (v, value) ->
                   Printf.sprintf "%s = %s" v (Value.to_string value))
                 d.ed_subst));
       if d.ed_nulls <> [] then
         Format.fprintf ppf "@,invents %s"
           (String.concat ", "
              (List.map (fun n -> "_:" ^ string_of_int n) d.ed_nulls));
       List.iter
         (fun p -> Format.fprintf ppf "@,%a" pp_explain_tree p)
         d.ed_premises);
  Format.fprintf ppf "@]"

let explain_tree_to_string t = Format.asprintf "%a@." pp_explain_tree t
