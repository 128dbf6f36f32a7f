(* The codec lives in the obs library, which every layer links; this
   alias keeps the [Lattice_serve.Json] name for existing callers. *)
include Lattice_obs.Json
