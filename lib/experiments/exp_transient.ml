module Sp = Lattice_spice

type result = {
  times : float array;
  out : float array;
  v_low : float;
  v_high : float;
  rise_time : float option;
  fall_time : float option;
  functional_pass : bool;
  slot_values : (int * float * bool) list;
}

let run ?(integrator = Sp.Transient.Trapezoidal) ?(bit_time = 100e-9) ?(h = 0.5e-9) () =
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  let vdd = 1.2 in
  let lc =
    Sp.Lattice_circuit.build grid ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd ~bit_time)
  in
  let options = { Sp.Transient.default_options with integrator } in
  let r =
    match
      Sp.Transient.run_diag ~options lc.Sp.Lattice_circuit.netlist ~h ~t_stop:(8.0 *. bit_time)
        ~record:[ lc.Sp.Lattice_circuit.output_node ] ()
    with
    | Ok r -> r
    | Error f -> failwith (Sp.Transient.pp_failure f)
  in
  let out = Sp.Transient.signal r lc.Sp.Lattice_circuit.output_node in
  let times = r.Sp.Transient.times in
  let v_low, v_high = Sp.Measure.steady_levels times out ~settle:(bit_time /. 5.0) in
  let slot_values =
    List.map
      (fun k ->
        let t = (float_of_int k +. 0.95) *. bit_time in
        let v = Sp.Measure.value_at times out t in
        (* binary-counter stimulus: input i is bit i of the combo index;
           the circuit computes NOT XOR3 *)
        let parity = (k land 1) lxor ((k lsr 1) land 1) lxor ((k lsr 2) land 1) in
        (k, v, parity = 0))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let functional_pass =
    List.for_all (fun (_, v, expect_one) -> Bool.equal (v > vdd /. 2.0) expect_one) slot_values
  in
  {
    times;
    out;
    v_low;
    v_high;
    rise_time = Sp.Measure.rise_time times out ~low:v_low ~high:v_high;
    fall_time = Sp.Measure.fall_time times out ~low:v_low ~high:v_high;
    functional_pass;
    slot_values;
  }

let report () =
  let r = run () in
  let opt_ns = function Some t -> Printf.sprintf "%.3g" (t *. 1e9) | None -> "-" in
  let rows =
    [
      Report.row ~id:"Fig11" ~metric:"computes NOT XOR3 over all 8 combos" ~paper:"yes"
        ~measured:(if r.functional_pass then "yes" else "NO") ();
      Report.row_f ~id:"Fig11" ~metric:"zero-state output, V" ~paper:0.22 ~measured:r.v_low ();
      Report.row ~id:"Fig11" ~metric:"rise time (10-90%), ns" ~paper:"11.3"
        ~measured:(opt_ns r.rise_time) ();
      Report.row ~id:"Fig11" ~metric:"fall time (90-10%), ns" ~paper:"4.7"
        ~measured:(opt_ns r.fall_time) ();
    ]
  in
  let body =
    Sp.Measure.ascii_plot ~width:64 ~height:12 ~label:"out (inverse XOR3)" r.times r.out
  in
  { Report.title = "Fig 11: transient of the inverse XOR3 lattice"; rows; body }
