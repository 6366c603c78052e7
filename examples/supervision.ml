(* A supervisory-analysis scenario (the paper's application domain:
   economics and supervision at a central bank).

   The workflow an analyst runs against the Company KG:
   1. conformance-check the freshly loaded register extract;
   2. materialize the intensional components (OWNS, CONTROLS);
   3. explain a specific control edge with a derivation tree
      (the reasoner's audit trail);
   4. as-of analysis: how the number of holdings evolves over the
      validity timeline (entities are time-dependent, Sec. 2.1);
   5. evolve the schema and check what the change would break.

   Run with: dune exec examples/supervision.exe [-- n] *)

open Kgm_common
module PG = Kgm_graphdb.Pgraph

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 300 in
  let schema = Kgm_finance.Company_schema.load () in
  let o = Kgm_finance.Generator.generate ~n ~seed:31 () in
  let data = Kgm_finance.Generator.to_company_graph ~temporal:true o in

  (* 1. ground-data conformance *)
  (match Kgmodel.Conformance.check ~reject_intensional:true schema data with
   | [] ->
       Format.printf "1. register extract conforms: %d nodes, %d edges@."
         (PG.node_count data) (PG.edge_count data)
   | vs ->
       Format.printf "1. conformance violations:@.";
       List.iter (Format.printf "   %a@." Kgmodel.Conformance.pp_violation) vs);

  (* 2. materialize OWNS + CONTROLS *)
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let inst = Kgmodel.Instances.create dict in
  let report =
    Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
      ~data
      ~sigma:(Kgm_finance.Intensional.owns ^ "\n" ^ Kgm_finance.Intensional.control)
      ()
  in
  Format.printf "2. materialized %d derived edges (reasoning %.3fs)@."
    report.Kgmodel.Materialize.derived_edges report.Kgmodel.Materialize.reason_s;
  (* derived knowledge is still conformant *)
  Format.printf "   instance conformant after materialization: %b@."
    (Kgmodel.Conformance.is_conformant schema data);

  (* 3. audit trail: explain one control relationship on the Example 4.2
     relational encoding, chased with its derivation support recorded *)
  let db = Kgm_finance.Control.vadalog_db o in
  let program =
    Kgm_vadalog.Parser.parse_program Kgm_finance.Control.vadalog_program
  in
  let options =
    { Kgm_vadalog.Engine.default_options with
      Kgm_vadalog.Engine.provenance = true }
  in
  let stats = Kgm_vadalog.Engine.run ~options program db in
  let sup = Option.get stats.Kgm_vadalog.Engine.support in
  let indirect =
    List.find_map
      (fun f ->
        match f with
        | [| Value.Int x; Value.Int y |] when x <> y -> (
            let t =
              Kgm_vadalog.Engine.explain_tree sup program "controls" f
            in
            match t.Kgm_vadalog.Engine.et_node with
            | Kgm_vadalog.Engine.Derived d
              when List.exists
                     (fun p -> p.Kgm_vadalog.Engine.et_pred = "controls")
                     d.Kgm_vadalog.Engine.ed_premises ->
                Some t
            | _ -> None)
        | _ -> None)
      (Kgm_vadalog.Engine.query db "controls")
  in
  (match indirect with
   | Some t ->
       Format.printf "3. audit trail for controls(%s):@.%a@."
         (String.concat ", "
            (Array.to_list
               (Array.map Value.to_string t.Kgm_vadalog.Engine.et_fact)))
         Kgm_vadalog.Engine.pp_explain_tree t
   | None -> Format.printf "3. no indirect control in this network@.");

  (* 4. as-of analysis over the validity timeline *)
  let timeline =
    Kgm_finance.Temporal.timeline data (fun slice ->
        List.length (PG.edges_with_label slice "HOLDS"))
  in
  let shown = ref 0 in
  Format.printf "4. holdings in force, by validity boundary:@.";
  List.iter
    (fun (d, count) ->
      if !shown mod (max 1 (List.length timeline / 6)) = 0 then
        Format.printf "   as of %s: %d holdings@." (Value.to_string d) count;
      incr shown)
    timeline;

  (* 5. schema evolution: enrich Place with GPS coordinates (the exact
     future change the Sec. 3.3 narrative anticipates) and make website
     mandatory (breaking) *)
  let replace ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if !i + m <= n && String.sub s !i m = sub then begin
        Buffer.add_string buf by;
        i := !i + m
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  let evolved =
    Kgmodel.Gsl.parse
      (Kgmodel.Gsl.print schema
       |> replace ~sub:"postalCode: string @opt;"
            ~by:
              "postalCode: string @opt;\n    gpsLat: float @opt;\n    gpsLon: float @opt;"
       |> replace ~sub:"website: string @opt;" ~by:"website: string;")
  in
  let d = Kgmodel.Schema_diff.diff schema evolved in
  Format.printf "5. schema evolution:@.%a" Kgmodel.Schema_diff.pp d;
  List.iter (Format.printf "   hint: %s@.") (Kgmodel.Schema_diff.migration_hints d)
