(* The ownership graph behind the serve-* workloads, its program, its
   query mix and its update stream — all generated from the workload
   seed — plus an exact model of every answer at every epoch.

   The graph is a forest of ownership chains v0 -> v1 -> ... -> v4
   (own weight 0.6, company/1 on every vertex). One chain in eight
   carries a seed/1 fact at its head, and the derived rules are gated
   by seed/1, so the chase stays linear in the graph: reach/2 and the
   Ex. 4.2 control rule (a monotonic sum) derive only below seeded
   heads. Every seeded chain misses exactly one edge (its cut): the
   head reaches and controls the vertices before the cut. An update
   batch moves the cut of some seeded chains — it re-inserts the old
   missing edge and retracts another one — half of them towards the
   head (a non-empty DRed cone and a touched counting group) and half
   away from it (new derived facts). *)

open Kgm_common

let len = 5
let facts_per_chain = (2 * len) - 1
let weight = 0.6

type t = {
  chains : int;
  heads : int array;  (** seeded chain ids *)
  cut : int array;  (** per chain: the missing edge's index, -1 = none *)
  history : (int * int) list array;
      (** per chain: (epoch, cut from then on), newest first *)
  mutable epoch : int;  (** batches applied to [cut] *)
}

let vertex c i = (c * len) + i
let chain_of v = v / len

let make ~seed ~facts =
  let chains = max 16 (facts / facts_per_chain) in
  let rng = Random.State.make [| seed; 0x6b67 |] in
  let cut = Array.make chains (-1) in
  let heads =
    List.filter (fun c -> c = 0 || Random.State.int rng 8 = 0)
      (List.init chains Fun.id)
    |> Array.of_list
  in
  Array.iter (fun c -> cut.(c) <- Random.State.int rng (len - 1)) heads;
  let history = Array.map (fun m -> [ (0, m) ]) cut in
  { chains; heads; cut; history; epoch = 0 }

let rules =
  {|reach(X, Y) :- seed(X), own(X, Y, W), W > 0.0.
reach(X, Z) :- reach(X, Y), own(Y, Z, W), W > 0.0.
controls(X, X) :- seed(X).
controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5.
|}

let own_fact a = [| Value.Int a; Value.Int (a + 1); Value.Float weight |]

(* the extensional database in load order, under the current cuts *)
let iter_edb t f =
  for c = 0 to t.chains - 1 do
    for i = 0 to len - 1 do
      f "company" [| Value.Int (vertex c i) |]
    done
  done;
  for c = 0 to t.chains - 1 do
    for i = 0 to len - 2 do
      if i <> t.cut.(c) then f "own" (own_fact (vertex c i))
    done
  done;
  Array.iter (fun c -> f "seed" [| Value.Int (vertex c 0) |]) t.heads

let edb_db t =
  let db = Kgm_vadalog.Database.create () in
  iter_edb t (fun p f -> ignore (Kgm_vadalog.Database.add db p f));
  db

(* the program [kgmodel serve] runs: the rules plus @input CSV sources
   (paths relative to the server's working directory) *)
let write_program t ~dir =
  let file name = Filename.concat dir name in
  let ocs = Hashtbl.create 3 in
  List.iter
    (fun p -> Hashtbl.replace ocs p (open_out (file (p ^ ".csv"))))
    [ "company"; "own"; "seed" ];
  iter_edb t (fun p f ->
      let oc = Hashtbl.find ocs p in
      output_string oc
        (String.concat "," (Array.to_list (Array.map Value.to_string f)));
      output_char oc '\n');
  Hashtbl.iter (fun _ oc -> close_out oc) ocs;
  let prog = file "program.vada" in
  let oc = open_out prog in
  List.iter
    (fun p -> Printf.fprintf oc "@input(\"%s\", \"csv:%s.csv\").\n" p p)
    [ "company"; "own"; "seed" ];
  output_string oc rules;
  close_out oc;
  prog

(* ---- queries ---- *)

type query = Reach of int | Controls of int | Own of int

let query_text = function
  | Reach h -> Printf.sprintf "reach(%d, X)" h
  | Controls h -> Printf.sprintf "controls(%d, X)" h
  | Own v -> Printf.sprintf "own(%d, Y, W)" v

(* the (predicate, bound positions) each query probes — the patterns the
   server registers and prepares on every publish *)
let patterns = [ ("reach", [ 0 ]); ("controls", [ 0 ]); ("own", [ 0 ]) ]

let query_pattern = function
  | Reach h -> ("reach", h)
  | Controls h -> ("controls", h)
  | Own v -> ("own", v)

let is_derived = function Reach _ | Controls _ -> true | Own _ -> false

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Zipf(0.99) over [n] ranks: inverse-CDF sampling *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (k + 1)) 0.99);
    cdf.(k) <- !acc
  done;
  fun rng ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* [n] point queries: a third each reach/controls of a seeded head and
   own/3 of any vertex, keys Zipf-skewed over a seeded permutation of
   the whole graph (hot keys are scattered, not clustered) *)
let mix ~seed t n =
  let rng = Random.State.make [| seed; 0x717 |] in
  let heads = shuffle rng (Array.map (fun c -> vertex c 0) t.heads) in
  let verts = shuffle rng (Array.init (t.chains * len) Fun.id) in
  let zh = zipf (Array.length heads) and zv = zipf (Array.length verts) in
  Array.init n (fun _ ->
      match Random.State.int rng 3 with
      | 0 -> Reach heads.(zh rng)
      | 1 -> Controls heads.(zh rng)
      | _ -> Own verts.(zv rng))

(* ---- the exact answer model ---- *)

let cut_at t c epoch =
  let rec go = function
    | (e, m) :: rest -> if e <= epoch then m else go rest
    | [] -> -1
  in
  go t.history.(c)

let line pred args =
  Printf.sprintf "%s(%s)." pred
    (String.concat ", " (List.map Value.to_string args))

(* the answer lines of a query at an epoch, sorted *)
let expected t epoch q =
  let lines =
    match q with
    | Reach h | Controls h ->
        let c = chain_of h in
        let m = cut_at t c epoch in
        let pred = match q with Reach _ -> "reach" | _ -> "controls" in
        let below = List.init (max 0 m) (fun i -> vertex c (i + 1)) in
        let ys = match q with Controls _ -> h :: below | _ -> below in
        List.map (fun y -> line pred [ Value.Int h; Value.Int y ]) ys
    | Own v ->
        let c = chain_of v and i = v mod len in
        if i < len - 1 && i <> cut_at t c epoch then
          [ line "own" (Array.to_list (own_fact v)) ]
        else []
  in
  List.sort String.compare lines

let sorted_lines body =
  String.split_on_char '\n' body
  |> List.filter (fun l -> l <> "")
  |> List.sort String.compare

(* ---- the update stream ---- *)

(* Move the cut of [k] seeded chains (k/2 towards the head, k/2 away
   from it) and return the batch text, in [kgmodel serve]'s +/- line
   format. Applies the move to [t] as epoch [t.epoch + 1]. *)
let next_batch rng t ~k =
  let chosen = Hashtbl.create 8 in
  let pick ok =
    let rec go tries =
      let c = t.heads.(Random.State.int rng (Array.length t.heads)) in
      if (not (Hashtbl.mem chosen c)) && ok t.cut.(c) then c
      else if tries > 10_000 then failwith "update stream: no movable chain"
      else go (tries + 1)
    in
    let c = go 0 in
    Hashtbl.replace chosen c ();
    c
  in
  let buf = Buffer.create 256 in
  let epoch = t.epoch + 1 in
  let move c m_new =
    let m_old = t.cut.(c) in
    Buffer.add_string buf
      (Printf.sprintf "-%s\n+%s\n"
         (line "own" (Array.to_list (own_fact (vertex c m_new))))
         (line "own" (Array.to_list (own_fact (vertex c m_old)))));
    t.cut.(c) <- m_new;
    t.history.(c) <- (epoch, m_new) :: t.history.(c)
  in
  for _ = 1 to k / 2 do
    let c = pick (fun m -> m > 0) in
    move c (Random.State.int rng t.cut.(c))
  done;
  for _ = 1 to k - (k / 2) do
    let c = pick (fun m -> m < len - 2) in
    let m = t.cut.(c) in
    move c (m + 1 + Random.State.int rng (len - 2 - m))
  done;
  t.epoch <- epoch;
  Buffer.contents buf

(* chains whose cut moved at some epoch *)
let touched t =
  List.filter (fun c -> List.length t.history.(c) > 1) (Array.to_list t.heads)
