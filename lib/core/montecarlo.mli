(** Monte-Carlo evaluation of an implementation: the implemented
    co-simulation repeated over many execution-time draws, so the
    design decision rests on a cost {e distribution} rather than a
    single worst-case trace.

    The WCET-static co-simulation bounds the degradation; under
    jittered laws the actual cost varies run to run.  This module runs
    [runs] co-simulations with consecutive seeds and summarises. *)

type summary = {
  runs : int;
  seeds : int array;
      (** the per-run seeds ([base_seed + i]), so any draw — e.g. the
          worst case — can be replayed standalone with
          [simulate_implemented ~mode:(Jittered { law; bcet_frac;
          seed = seeds.(i) })] *)
  costs : float array;
      (** one implemented cost per run, in seed order ([costs.(i)] is
          the draw of [seeds.(i)]); parallel evaluation through the
          pool preserves this order bit-for-bit *)
  mean : float;
  stddev : float;
  cmin : float;
  cmax : float;
  p95 : float;
  static_cost : float;
      (** cost of the deterministic WCET (static) co-simulation — an
          upper envelope the samples should respect for monotone
          latency-cost designs *)
}

val costs :
  ?pool:Explore.Pool.t ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?cache:float Explore.Cache.t ->
  design:Design.t ->
  implementation:Methodology.implementation ->
  int list ->
  float list
(** [costs seeds]: one jittered implemented cost per seed, in order.
    Each pool domain compiles at most one engine through the
    per-domain session slot ({!Session.obtain}) and sweeps its share
    of the seeds through it, so results are bit-for-bit equal to the
    sequential (and to the per-seed rebuilding) evaluation however the
    work-stealing scheduler splits the list.  Defaults as {!run}. *)

val run :
  ?runs:int ->
  ?base_seed:int ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?pool:Explore.Pool.t ->
  ?cache:float Explore.Cache.t ->
  design:Design.t ->
  implementation:Methodology.implementation ->
  unit ->
  summary
(** Default 20 runs from [base_seed] 1000, uniform law over
    [\[bcet_frac·WCET, WCET\]] with [bcet_frac] 0.4.  The per-seed
    co-simulations run on [pool] (default {!Explore.Pool.default});
    with [cache], each draw is memoized under the canonical digest of
    (design params, schedule, law, BCET fraction, seed), so repeated
    summaries of the same implementation replay from the cache.
    Raises [Invalid_argument] on [runs <= 0]. *)

val pp : Format.formatter -> summary -> unit
