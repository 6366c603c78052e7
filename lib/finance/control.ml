(** Company control (paper, Example 4.1/4.2 and [32]): x controls y when
    x directly owns > 50% of y, or the companies x (jointly with the
    companies it already controls) own > 50% of y.

    This native fixpoint is the differential baseline for the MetaLog /
    Vadalog encodings (EXP-5) and the workhorse for EXP-2's scaled
    measurements. Worklist algorithm, O(reachable edges) amortized per
    source. *)

module DG = Kgm_algo.Digraph

(** Companies controlled by [x] (strictly: excluding [x] itself unless
    reachable by the >50% rule; the reflexive base case of the paper's
    rule (1) is an encoding device, not reported). *)
let controlled_by (o : Generator.ownership) x =
  let n = DG.n o.Generator.graph in
  let acc = Hashtbl.create 32 in
  let controlled = Hashtbl.create 16 in
  let queue = Queue.create () in
  Queue.add x queue;
  let in_controlled = Hashtbl.create 16 in
  Hashtbl.add in_controlled x ();
  while not (Queue.is_empty queue) do
    let z = Queue.pop queue in
    ignore
      (Generator.fold_owned o z
         (fun () y w ->
           if y >= 0 && y < n then begin
             let cur = Option.value ~default:0. (Hashtbl.find_opt acc y) in
             let nw = cur +. w in
             Hashtbl.replace acc y nw;
             if nw > 0.5 && not (Hashtbl.mem in_controlled y) then begin
               Hashtbl.add in_controlled y ();
               Hashtbl.replace controlled y ();
               Queue.add y queue
             end
           end)
         ())
  done;
  List.sort Int.compare (Hashtbl.fold (fun y () l -> y :: l) controlled [])

(** All control pairs (x, y): per Example 4.1, control is a relation
    between businesses, so x ranges over companies with holdings.
    Quadratic in the worst case; fine at benchmark scales. *)
let all_pairs o =
  let n = DG.n o.Generator.graph in
  let pairs = ref [] in
  for x = o.Generator.n_persons to n - 1 do
    if DG.out_degree o.Generator.graph x > 0 then
      List.iter (fun y -> pairs := (x, y) :: !pairs) (controlled_by o x)
  done;
  List.rev !pairs

(** Control pairs rooted at every shareholder, individuals included —
    the "ultimate controller" variant used by {!Groups}. *)
let all_pairs_any_source o =
  let n = DG.n o.Generator.graph in
  let pairs = ref [] in
  for x = 0 to n - 1 do
    if DG.out_degree o.Generator.graph x > 0 then
      List.iter (fun y -> pairs := (x, y) :: !pairs) (controlled_by o x)
  done;
  List.rev !pairs

(** Control pairs restricted to sources in [sources]. *)
let pairs_from o sources =
  List.concat_map (fun x -> List.map (fun y -> (x, y)) (controlled_by o x)) sources

(** The MetaLog encoding of Example 4.1, phrased against the Company-KG
    constructs (OWNS must have been derived or supplied). *)
let metalog_sigma =
  {|
(x: Business) => (x)-[c: CONTROLS]->(x).
(x: Business)-[: CONTROLS]->(z: Business)-[: OWNS; percentage: W]->(y: Business),
  V = sum(W, <z>), V > 0.5
  => (x)-[c: CONTROLS]->(y).
|}

(** The Vadalog encoding of Example 4.2 over plain relations
    company/1 and own/3. *)
let vadalog_program =
  {|
controls(X, X) :- company(X).
controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5.
|}

(** The ownership network as the company/own facts of the Example 4.2
    Vadalog program. *)
let vadalog_db (o : Generator.ownership) =
  let module V = Kgm_vadalog in
  let db = V.Database.create () in
  let n = DG.n o.Generator.graph in
  for v = o.Generator.n_persons to n - 1 do
    ignore (V.Database.add db "company" [| Kgm_common.Value.Int v |])
  done;
  for x = 0 to n - 1 do
    ignore
      (Generator.fold_owned o x
         (fun () y w ->
           ignore
             (V.Database.add db "own"
                [| Kgm_common.Value.Int x; Kgm_common.Value.Int y;
                   Kgm_common.Value.Float w |]))
         ())
  done;
  db

(** Run the Example 4.2 Vadalog program on the ownership network and
    return the non-reflexive control pairs. *)
let via_vadalog ?options (o : Generator.ownership) =
  let module V = Kgm_vadalog in
  let db = vadalog_db o in
  let program = V.Parser.parse_program vadalog_program in
  ignore (V.Engine.run ?options program db);
  List.filter_map
    (fun fact ->
      match fact with
      | [| Kgm_common.Value.Int x; Kgm_common.Value.Int y |] when x <> y ->
          Some (x, y)
      | _ -> None)
    (V.Database.facts db "controls")
  |> List.sort compare
