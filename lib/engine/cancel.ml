(* The engine's name for {!Lattice_spice.Cancel}: one token type shared
   by engine call sites and the spice inner loops. *)
include Lattice_spice.Cancel
