(* End-to-end synthesis flow: Boolean expression -> minimized SOP -> lattice
   (dual-based construction) -> transistor-level netlist -> DC verification
   of every input combination against the specification.

   This is the flow a lattice-based design tool would run: Section II logic
   synthesis feeding the Section V circuit model.

   Run with: dune exec examples/synthesis_flow.exe -- [EXPR]
   Default EXPR is a 1-bit full-adder carry: "a b + b c + a c". *)

let () =
  let expr = if Array.length Sys.argv > 1 then Sys.argv.(1) else "a b + b c + a c" in
  Printf.printf "specification: %s\n\n" expr;
  let ast, names = Lattice_boolfn.Expr.parse expr in
  let nvars = Array.length names in
  let tt = Lattice_boolfn.Expr.to_truthtable ast ~nvars in
  let name i = if i < nvars then names.(i) else Printf.sprintf "v%d" i in

  (* two-level minimization of f and its dual *)
  let f_sop = Lattice_boolfn.Qm.cover tt in
  let d_sop = Lattice_boolfn.Qm.cover (Lattice_boolfn.Truthtable.dual tt) in
  Printf.printf "minimized SOP:  f  = %s\n" (Lattice_boolfn.Sop.to_string ~names:name f_sop);
  Printf.printf "dual SOP:       fD = %s\n\n" (Lattice_boolfn.Sop.to_string ~names:name d_sop);

  (* dual-based lattice construction *)
  let r = Lattice_synthesis.Altun_riedel.synthesize tt in
  let grid = r.Lattice_synthesis.Altun_riedel.grid in
  Printf.printf "lattice (%dx%d):\n%s\n" grid.Lattice_core.Grid.rows grid.Lattice_core.Grid.cols
    (Lattice_core.Grid.to_string ~names:name grid);
  assert (Lattice_synthesis.Validate.realizes grid tt);
  Printf.printf "logic-level validation: PASS\n\n";

  (* transistor netlist: pull-down lattice computes NOT f, so a conducting
     lattice means f = 1 and the output node is low *)
  let vdd = 1.2 in
  let combos = 1 lsl nvars in
  Printf.printf "circuit-level verification (DC per input combination):\n";
  Printf.printf "  %s | f  V(out)   logic\n"
    (String.concat " " (List.init nvars (fun v -> name v)));
  let all_ok = ref true in
  for m = 0 to combos - 1 do
    let stimulus v = Lattice_spice.Source.Dc (if (m lsr v) land 1 = 1 then vdd else 0.0) in
    let lc = Lattice_spice.Lattice_circuit.build grid ~stimulus in
    let x =
      match Lattice_spice.Dcop.solve_diag lc.Lattice_spice.Lattice_circuit.netlist with
      | Ok (x, _) -> x
      | Error f -> failwith ("all DC strategies failed: " ^ Lattice_spice.Dcop.pp_failure f)
    in
    let out_node =
      Lattice_spice.Netlist.node lc.Lattice_spice.Lattice_circuit.netlist
        lc.Lattice_spice.Lattice_circuit.output_node
    in
    let v_out = Lattice_spice.Mna.voltage x out_node in
    let spec = Lattice_boolfn.Truthtable.eval tt m in
    (* inverted output: f = 1 -> out low *)
    let circuit_f = v_out < vdd /. 2.0 in
    let ok = Bool.equal spec circuit_f in
    if not ok then all_ok := false;
    Printf.printf "  %s | %d  %6.3f   %s\n"
      (String.concat " " (List.init nvars (fun v -> string_of_int ((m lsr v) land 1))))
      (if spec then 1 else 0) v_out
      (if ok then "ok" else "MISMATCH")
  done;
  Printf.printf "\ncircuit-level verification: %s\n" (if !all_ok then "PASS" else "FAIL");
  if not !all_ok then exit 1
