(* Helpers shared by the test executables. *)

(* A fresh directory under the system temp dir, unique per process and
   call. *)
let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%06x" prefix (Unix.getpid ()) (Random.bits () land 0xFFFFFF))
  in
  Unix.mkdir d 0o755;
  d

(* Recursive delete that does not follow symlinks; a missing path is
   not an error. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- Analysis helpers ---------------------------------------------------- *)

module Sp = Lattice_spice

(* The result APIs, failing the test with the rendered diagnostic. *)
let dc_exn ?options ?plan ?x0 ?time netlist =
  match Sp.Dcop.solve_diag ?options ?plan ?x0 ?time netlist with
  | Ok (x, _) -> x
  | Error f -> Alcotest.fail (Sp.Dcop.pp_failure f)

let tran_exn ?options netlist ~h ~t_stop ~record ?record_currents () =
  match Sp.Transient.run_diag ?options netlist ~h ~t_stop ~record ?record_currents () with
  | Ok r -> r
  | Error f -> Alcotest.fail (Sp.Transient.pp_failure f)

(* --- Dense reference solver ---------------------------------------------- *)

(* The oracle the compiled sparse runtime path is checked against: every
   Newton iteration stamps the full dense MNA matrix ([Mna.stamp]) and
   factors it with dense LU. Same stop test and per-node step clamp as
   [Dcop.newton_into]; raises [Failure] when it does not converge. *)
let dense_newton netlist ~(options : Sp.Dcop.options) ~x0 ~time ~gmin ~source_scale ~caps =
  let nnodes = Sp.Netlist.num_nodes netlist in
  let n = Array.length x0 in
  let x = Lattice_numerics.Vec.copy x0 in
  let converged x_new =
    let ok = ref true in
    for i = 0 to n - 1 do
      let d = Float.abs (x_new.(i) -. x.(i)) in
      if d > options.abstol +. (options.reltol *. Float.abs x_new.(i)) then ok := false
    done;
    !ok
  in
  let rec iterate k =
    if k >= options.max_iterations then
      failwith (Printf.sprintf "dense Newton: no convergence after %d iterations" k);
    let a, b = Sp.Mna.stamp netlist ~x ~time ~gmin ~gshunt:0.0 ~source_scale ~caps in
    let x_new =
      try Lattice_numerics.Lu.(solve (factor a) b)
      with Lattice_numerics.Lu.Singular col ->
        failwith (Printf.sprintf "dense Newton: singular at column %d" col)
    in
    for i = 0 to nnodes - 1 do
      let d = x_new.(i) -. x.(i) in
      if Float.abs d > options.damping then x_new.(i) <- x.(i) +. Float.copy_sign options.damping d
    done;
    if converged x_new then x_new
    else begin
      Array.blit x_new 0 x 0 n;
      iterate (k + 1)
    end
  in
  iterate 0

(* Dense operating point: plain Newton from zero, then the gmin ladder —
   the first two rungs of [Dcop.solve_diag]. *)
let dense_dc ?(options = Sp.Dcop.default_options) netlist =
  let newton ~x0 ~gmin =
    dense_newton netlist ~options ~x0 ~time:0.0 ~gmin ~source_scale:1.0 ~caps:None
  in
  let zeros = Lattice_numerics.Vec.zeros (Sp.Netlist.unknowns netlist) in
  try newton ~x0:zeros ~gmin:options.gmin_final
  with Failure _ ->
    let x = List.fold_left (fun x0 gmin -> newton ~x0 ~gmin) zeros options.gmin_steps in
    newton ~x0:x ~gmin:options.gmin_final

let capacitors netlist =
  List.filter_map
    (function
      | Sp.Netlist.Capacitor { n1; n2; farads; _ } ->
        Some (Sp.Netlist.node_index n1, Sp.Netlist.node_index n2, farads)
      | Sp.Netlist.Resistor _ | Sp.Netlist.Vsource _ | Sp.Netlist.Isource _
      | Sp.Netlist.Mosfet _ ->
        None)
    (Sp.Netlist.elements netlist)

(* Fixed-step dense transient on [Transient.sample_times]: backward Euler
   on the first step, then the selected integrator, with no step
   halving — it stands for runs that took none. Returns the recorded
   node voltages and source currents, in request order. *)
let dense_tran ?(options = Sp.Transient.default_options) netlist ~h ~t_stop ~record
    ~record_currents =
  let dc = options.Sp.Transient.dc in
  let x = ref (dense_dc ~options:dc netlist) in
  let farads = Array.of_list (List.map (fun (_, _, f) -> f) (capacitors netlist)) in
  let ncaps = Array.length farads in
  let comp = { Sp.Mna.geq = Array.make ncaps 0.0; ieq = Array.make ncaps 0.0 } in
  let v_prev = Sp.Mna.cap_voltages netlist !x in
  let i_prev = Array.make ncaps 0.0 in
  let nodes = List.map (Sp.Netlist.node netlist) record in
  let rows =
    List.map
      (fun name ->
        Sp.Netlist.vsource_row netlist (Option.get (Sp.Netlist.vsource_index netlist name)))
      record_currents
  in
  let times = Sp.Transient.sample_times ~h ~t_stop in
  let ns = Array.length times in
  let volts = List.map (fun _ -> Array.make ns 0.0) nodes in
  let amps = List.map (fun _ -> Array.make ns 0.0) rows in
  let sample k =
    List.iter2 (fun node w -> w.(k) <- Sp.Mna.voltage !x node) nodes volts;
    List.iter2 (fun row w -> w.(k) <- !x.(row)) rows amps
  in
  sample 0;
  for k = 1 to ns - 1 do
    let t = times.(k - 1) in
    let dt = times.(k) -. t in
    let trap = options.Sp.Transient.integrator = Sp.Transient.Trapezoidal && k > 1 in
    for c = 0 to ncaps - 1 do
      if trap then begin
        comp.Sp.Mna.geq.(c) <- 2.0 *. farads.(c) /. dt;
        comp.Sp.Mna.ieq.(c) <- -.((comp.Sp.Mna.geq.(c) *. v_prev.(c)) +. i_prev.(c))
      end
      else begin
        comp.Sp.Mna.geq.(c) <- farads.(c) /. dt;
        comp.Sp.Mna.ieq.(c) <- -.(comp.Sp.Mna.geq.(c) *. v_prev.(c))
      end
    done;
    x :=
      dense_newton netlist ~options:dc ~x0:!x ~time:(t +. dt) ~gmin:dc.Sp.Dcop.gmin_final
        ~source_scale:1.0 ~caps:(Some comp);
    let v_new = Sp.Mna.cap_voltages netlist !x in
    for c = 0 to ncaps - 1 do
      i_prev.(c) <- (comp.Sp.Mna.geq.(c) *. v_new.(c)) +. comp.Sp.Mna.ieq.(c);
      v_prev.(c) <- v_new.(c)
    done;
    sample k
  done;
  (List.combine record volts, List.combine record_currents amps)

(* Dense small-signal sweep at [freqs]: linearize at the dense operating
   point, then factor the full real 2n x 2n system [[G, -B]; [B, G]] at
   every frequency. Returns (magnitude, phase in degrees) per frequency. *)
let dense_ac netlist ~source ~output ~freqs =
  let module Matrix = Lattice_numerics.Matrix in
  let x_op = dense_dc netlist in
  let g, _ =
    Sp.Mna.stamp netlist ~x:x_op ~time:0.0 ~gmin:Sp.Dcop.default_options.Sp.Dcop.gmin_final
      ~gshunt:0.0 ~source_scale:1.0 ~caps:None
  in
  let n = Sp.Netlist.unknowns netlist in
  let source_row =
    Sp.Netlist.vsource_row netlist (Option.get (Sp.Netlist.vsource_index netlist source))
  in
  let out = Sp.Netlist.node_index (Sp.Netlist.node netlist output) in
  let caps = capacitors netlist in
  List.map
    (fun freq ->
      let w = 2.0 *. Float.pi *. freq in
      let a = Matrix.create (2 * n) (2 * n) in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          Matrix.set a r c (Matrix.get g r c);
          Matrix.set a (n + r) (n + c) (Matrix.get g r c)
        done
      done;
      let susceptance r c y =
        if r >= 0 && c >= 0 then begin
          Matrix.add_to a r (n + c) (-.y);
          Matrix.add_to a (n + r) c y
        end
      in
      List.iter
        (fun (i1, i2, f) ->
          let y = w *. f in
          susceptance i1 i1 y;
          susceptance i2 i2 y;
          susceptance i1 i2 (-.y);
          susceptance i2 i1 (-.y))
        caps;
      let b = Array.make (2 * n) 0.0 in
      b.(source_row) <- 1.0;
      let x = Lattice_numerics.Lu.solve_dense a b in
      let re = x.(out) and im = x.(n + out) in
      (sqrt ((re *. re) +. (im *. im)), Float.atan2 im re *. 180.0 /. Float.pi))
    freqs
