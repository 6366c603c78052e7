(* The materialize workload: EXP-2's Algorithm 2 run — Materialize
   .materialize with the full Σ (owns + control + stakeholders) on
   seeded Kgm_finance.Generator Company KGs, at jobs = nproc. Each call
   gets a fresh graph, so a run's median spans several graphs, not one.

   The chase cost of a generated graph tracks its number of ownership
   edges m closely (correlation 0.96 over 40 graphs at n = 250) and m
   varies by +-20% between seeds. So graph i of a run is built from the
   first of the generator seeds (seed, i, 0), (seed, i, 1), ... that
   yields at least 1.07 n edges (the generator's mean), trimmed to
   exactly that many by dropping a seeded random choice of the rest. *)

module G = Kgm_finance.Generator
module DG = Kgm_algo.Digraph

module O = Outcome
module M = Kgmodel.Materialize

let now = Kgm_telemetry.Clock.now

type cfg = { nproc : int; seed : int; seconds : float; n : int }

type input = {
  schema : Kgmodel.Supermodel.t;
  sid : int;
  inst : Kgmodel.Instances.t;
  data : Kgm_graphdb.Pgraph.t;
}

(* keep [m] of the ownership edges, dropping a random choice of the
   rest; shares only shrink, so every company stays at most fully
   owned *)
let trim rng (o : G.ownership) m =
  let n = DG.n o.graph in
  let edges =
    Array.concat
      (List.init n (fun x ->
           Array.of_list (List.rev (G.fold_owned o x (fun acc y w -> (x, y, w) :: acc) []))))
  in
  let drop = Array.make (Array.length edges) false in
  let order = Array.init (Array.length edges) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  for k = 0 to Array.length edges - m - 1 do
    drop.(order.(k)) <- true
  done;
  let graph = DG.create n and weights = Array.make n [] in
  Array.iteri
    (fun k (x, y, w) ->
      if not drop.(k) then begin
        DG.add_edge graph x y;
        weights.(x) <- w :: weights.(x)
      end)
    edges;
  { o with graph; weights = Array.map (fun ws -> Array.of_list (List.rev ws)) weights }

(* the benchmark's input for call [i]: the ownership graph *)
let graph cfg i =
  let m = int_of_float (1.07 *. float_of_int cfg.n) in
  let rec go k =
    let seed = Hashtbl.hash (cfg.seed, i, k) in
    let o = G.generate ~seed ~n:cfg.n () in
    if DG.m o.graph >= m then trim (Random.State.make [| seed |]) o m
    else go (k + 1)
  in
  go 0

(* the program's set-up for one call, from scratch (materialize mutates
   the dictionary, the instances and the data graph in place) *)
let setup g =
  let schema = Kgm_finance.Company_schema.load () in
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let inst = Kgmodel.Instances.create dict in
  { schema; sid; inst; data = G.to_company_graph g }

let call ~jobs x =
  let options = { Kgm_vadalog.Engine.default_options with Kgm_vadalog.Engine.jobs } in
  Gc.compact ();
  let t0 = now () in
  let r =
    M.materialize ~options ~instances:x.inst ~schema:x.schema ~schema_oid:x.sid
      ~data:x.data ~sigma:Kgm_finance.Intensional.full ()
  in
  (r, now () -. t0)

let counts (r : M.report) = (r.derived_nodes, r.derived_edges, r.derived_attrs)

(* the oracle: jobs = nproc derives exactly what the sequential chase
   derives *)
let check_jobs1 o cfg (r : M.report) (r1 : M.report) =
  let n, e, a = counts r and n1, e1, a1 = counts r1 in
  O.check o
    ((n, e, a) = (n1, e1, a1) && not (r.incomplete || r1.incomplete))
    "derived nodes/edges/attrs %d/%d/%d at jobs=%d, %d/%d/%d at jobs=1" n e a
    cfg.nproc n1 e1 a1

(* the end-to-end run: calls back to back on fresh graphs for the run's
   seconds (at least three), a host-speed probe (Calib) after each, then
   the jobs = 1 oracle on graph 0, whose report it returns with the
   measurement's span *)
let measure cfg o =
  let setups = ref [] and walls = ref [] and first = ref None in
  let t_start = now () in
  let t_end = t_start +. cfg.seconds in
  let probes = ref [ Calib.probe () ] in
  let i = ref 0 in
  while now () < t_end || !i < 3 do
    let g = graph cfg !i in
    (* from a compacted heap, so earlier garbage is not collected on the
       set-up's clock *)
    Gc.compact ();
    let t0 = now () in
    let x = setup g in
    let setup_s = now () -. t0 in
    let r, wall = call ~jobs:cfg.nproc x in
    O.attempt o 1;
    if r.incomplete then O.fail o "call %d stopped early" !i;
    probes := Calib.probe () :: !probes;
    setups := setup_s :: !setups;
    walls := wall :: !walls;
    if !first = None then first := Some r;
    incr i
  done;
  let rss = Serve_wl.vm_hwm_mb "self" in
  (* call i (from 1) lies between probes i - 1 and i *)
  let probes = Array.of_list (List.rev !probes) in
  let norm l =
    Array.of_list (List.rev l) |> Array.mapi (fun i t -> Calib.normalize probes ~block:(i + 1) t)
  in
  let norm_setups = norm !setups in
  O.metric o "setup_s" "s" ~samples:norm_setups (Bstats.median (Array.to_list norm_setups));
  O.metric o "setup.raw_s" "s" (Bstats.median !setups);
  O.op_latency o ~raw:(Array.of_list !walls) ~norm:(norm !walls);
  O.probes o probes;
  O.metric o "peak_rss_mb" "MB" rss;
  let r1, _ = call ~jobs:1 (setup (graph cfg 0)) in
  check_jobs1 o cfg (Option.get !first) r1;
  (r1, now () -. t_start)

(* the traced pass: one call on graph 0 with Gc deltas around it, whose
   report gives the layer split; the pool gain is against the
   measurement's jobs = 1 call on the same graph *)
let traced cfg o ~(r1 : M.report) ~measured =
  let t0 = now () in
  let x = setup (graph cfg 0) in
  let g0 = Gc.quick_stat () in
  let r, wall = call ~jobs:cfg.nproc x in
  let g1 = Gc.quick_stat () in
  check_jobs1 o cfg r r1;
  let parts = r.load_s +. r.reason_s +. r.flush_s in
  O.metric o "materialize.load_s" "s" r.load_s;
  O.metric o "materialize.reason_s" "s" r.reason_s;
  O.metric o "materialize.flush_s" "s" r.flush_s;
  O.metric o "materialize.unattributed_s" "s" (wall -. parts);
  if Float.abs (wall -. parts) > 0.05 *. wall then
    O.warn o "layer sum: load+reason+flush %.3f s vs materialize %.3f s (bar 5%%)"
      parts wall;
  Serve_wl.layer_engine o r.engine_stats;
  O.metric o "pool.jobs1_reason_s" "s" r1.reason_s;
  O.metric o "pool.gain" "x" (r1.reason_s /. r.reason_s);
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  O.metric o "gc.minor_collections" "count"
    (float_of_int (g1.minor_collections - g0.minor_collections));
  O.metric o "gc.major_collections" "count"
    (float_of_int (g1.major_collections - g0.major_collections));
  O.metric o "gc.allocated_mb" "MB"
    ((words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1048576.);
  Serve_wl.trace_overhead o ~traced:(now () -. t0) ~measured

let run cfg ~trace o =
  let r1, measured = measure cfg o in
  if trace then traced cfg o ~r1 ~measured
