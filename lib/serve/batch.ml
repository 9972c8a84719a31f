(* a batch IS a lifecycle session; the pooled seed sweep lives in
   Lifecycle.Montecarlo *)
type t = Lifecycle.Session.t

let create = Lifecycle.Session.create
let cost = Lifecycle.Session.cost

let montecarlo ?runs ?base_seed ?law ?bcet_frac ?pool ~design ~implementation () =
  Lifecycle.Montecarlo.run ?runs ?base_seed ?law ?bcet_frac ?pool ~design ~implementation ()
