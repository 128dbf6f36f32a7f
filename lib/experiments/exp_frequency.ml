module Sp = Lattice_spice
module Lib = Lattice_synthesis.Library

type style_metrics = {
  f3db_hz : float option;
  f3db_low_hz : float option;
  phase_at_f3db_deg : float;
  cycle_energy_j : float;
}

type result = {
  resistor : style_metrics;
  complementary : style_metrics;
  bandwidth_gain : float;
}

let vdd = 1.2

let build style ~stimulus =
  match style with
  | `Resistor -> Sp.Lattice_circuit.build Lib.xor3_3x3 ~stimulus
  | `Complementary ->
    Sp.Lattice_circuit.build_complementary ~pull_up:Lib.xnor3_3x3 ~pull_down:Lib.xor3_3x3
      ~stimulus ()

let bandwidth style ~state =
  (* state `High: all inputs 0, output held high (weakly, through the
     n-type pull-up in the complementary case); state `Low: a = 1, output
     held low through the conducting pull-down *)
  let stimulus v =
    match state with
    | `High -> Sp.Source.Dc 0.0
    | `Low -> Sp.Source.Dc (if v = 0 then vdd else 0.0)
  in
  let lc = build style ~stimulus in
  let response =
    match
      Sp.Ac.sweep lc.Sp.Lattice_circuit.netlist ~source:"VDD" ~output:"out" ~f_start:1e4
        ~f_stop:1e10 ~points_per_decade:10
    with
    | Ok r -> r
    | Error f -> failwith ("all DC strategies failed: " ^ Sp.Dcop.pp_failure f)
  in
  (Sp.Ac.f_3db response, response)

let run_style ?(bit_time = 100e-9) style =
  let f3db_hz, response = bandwidth style ~state:`High in
  let f3db_low_hz, _ = bandwidth style ~state:`Low in
  let phase_at_f3db_deg =
    match f3db_hz with Some f -> Sp.Ac.phase_at response f | None -> nan
  in

  (* dynamic energy over the full 8-combination cycle *)
  let lc =
    build style ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd ~bit_time)
  in
  let r =
    match
      Sp.Transient.run_diag lc.Sp.Lattice_circuit.netlist ~h:0.5e-9 ~t_stop:(8.0 *. bit_time)
        ~record:[] ~record_currents:[ "VDD" ] ()
    with
    | Ok r -> r
    | Error f -> failwith (Sp.Transient.pp_failure f)
  in
  let i_vdd = Sp.Transient.branch_current r "VDD" in
  {
    f3db_hz;
    f3db_low_hz;
    phase_at_f3db_deg;
    cycle_energy_j = Sp.Measure.energy_from_supply ~vdd r.Sp.Transient.times i_vdd;
  }

let run ?bit_time () =
  let resistor = run_style ?bit_time `Resistor in
  let complementary = run_style ?bit_time `Complementary in
  let bandwidth_gain =
    match (resistor.f3db_hz, complementary.f3db_hz) with
    | Some a, Some b -> b /. a
    | Some _, None | None, Some _ | None, None -> nan
  in
  { resistor; complementary; bandwidth_gain }

let report () =
  let r = run () in
  let mhz = function Some f -> Printf.sprintf "%.3g" (f /. 1e6) | None -> "-" in
  let rows =
    [
      Report.row ~id:"ExtVIa" ~metric:"output-pole f3dB, resistor load, MHz"
        ~paper:"('maximum frequency' planned)" ~measured:(mhz r.resistor.f3db_hz) ();
      Report.row ~id:"ExtVIa" ~metric:"output-pole f3dB, complementary, MHz" ~paper:"-"
        ~measured:(mhz r.complementary.f3db_hz) ();
      Report.row_f ~id:"ExtVIa" ~metric:"bandwidth gain, x" ~paper:nan
        ~measured:r.bandwidth_gain
        ~note:"high state: n-type pull-up is weak near V_OH" ();
      Report.row ~id:"ExtVIa" ~metric:"low-state f3dB res -> compl., MHz" ~paper:"-"
        ~measured:(Printf.sprintf "%s -> %s" (mhz r.resistor.f3db_low_hz)
             (mhz r.complementary.f3db_low_hz))
        ~note:"both strongly driven when low" ();
      Report.row_f ~id:"ExtVIa" ~metric:"phase at f3dB, resistor, deg" ~paper:nan
        ~measured:r.resistor.phase_at_f3db_deg ();
      Report.row_f ~id:"ExtVIa" ~metric:"energy / 8-combo cycle, resistor, pJ" ~paper:nan
        ~measured:(r.resistor.cycle_energy_j *. 1e12) ();
      Report.row_f ~id:"ExtVIa" ~metric:"energy / 8-combo cycle, complementary, pJ" ~paper:nan
        ~measured:(r.complementary.cycle_energy_j *. 1e12) ();
    ]
  in
  {
    Report.title = "Extension (paper Sec VI-A): maximum frequency and dynamic energy";
    rows;
    body = "";
  }
