(** Shared-engine Monte-Carlo batches: the serve-layer names for
    {!Lifecycle.Session} (one compiled {!Sim.Engine}, reseeded and
    reset between scenarios) and {!Lifecycle.Montecarlo.run} (the
    pooled seed sweep through one such engine per pool domain).

    Determinism contract: [cost b ~seed] is bit-for-bit equal to
    evaluating the same design on a freshly built engine with
    [Jittered { law; bcet_frac; seed }]; [test/test_serve.ml] enforces
    it against {!Lifecycle.Montecarlo.run}. *)

type t = Lifecycle.Session.t
(** One compiled engine plus its reseedable jitter source. *)

val create :
  ?meth:Numerics.Ode.method_ ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?comm_jitter_frac:float ->
  design:Lifecycle.Design.t ->
  implementation:Lifecycle.Methodology.implementation ->
  unit ->
  t
(** {!Lifecycle.Session.create}: uniform law over
    [\[bcet_frac·WCET, WCET\]] with [bcet_frac] 0.4 by default. *)

val cost : t -> seed:int -> float
(** {!Lifecycle.Session.cost}: reseeds, resets, runs to the design's
    horizon and returns the design's cost.  Any number of calls, any
    seed order. *)

val montecarlo :
  ?runs:int ->
  ?base_seed:int ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?pool:Explore.Pool.t ->
  design:Lifecycle.Design.t ->
  implementation:Lifecycle.Methodology.implementation ->
  unit ->
  Lifecycle.Montecarlo.summary
(** {!Lifecycle.Montecarlo.run} without a cache.  Raises
    [Invalid_argument] on [runs <= 0]. *)
