type summary = {
  runs : int;
  seeds : int array;
  costs : float array;
  mean : float;
  stddev : float;
  cmin : float;
  cmax : float;
  p95 : float;
  static_cost : float;
}

let costs ?pool ?(law = Exec.Timing_law.Uniform) ?(bcet_frac = 0.4) ?cache ~design
    ~implementation seeds =
  match seeds with
  | [] -> []
  | seeds ->
      let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
      (* both keys are computed here, before any worker runs: a lazy
         value forced from several domains at once raises
         CamlinternalLazy.Undefined *)
      let skey = Session.key ~law ~bcet_frac ~design ~implementation () in
      (* each domain compiles (at most) one engine via the per-domain
         session slot and sweeps its share of the seeds through it
         (reseed + reset, bit-for-bit equal to a rebuild — the Session
         determinism contract) *)
      let session_cost seed =
        let s =
          Session.obtain ~key:skey ~create:(fun () ->
              Session.create ~law ~bcet_frac ~design ~implementation ())
        in
        Session.cost s ~seed
      in
      let cost_of =
        match cache with
        | None -> session_cost
        | Some c ->
            let problem_key =
              Explore.Key.digest
                [
                  "scilife.montecarlo";
                  (design : Design.t).Design.name;
                  Explore.Key.float design.Design.ts;
                  Explore.Key.float design.Design.horizon;
                  Explore.Key.schedule implementation.Methodology.schedule;
                  Explore.Key.law law;
                  Explore.Key.float bcet_frac;
                ]
            in
            fun seed ->
              Explore.Cache.find_or_add c
                ~key:(Explore.Key.digest [ problem_key; Explore.Key.int seed ])
                (fun () -> session_cost seed)
      in
      Explore.Pool.map pool cost_of seeds

let run ?(runs = 20) ?(base_seed = 1000) ?law ?bcet_frac ?pool ?cache ~design
    ~implementation () =
  if runs <= 0 then invalid_arg "Montecarlo.run: non-positive run count";
  let seeds = Array.init runs (fun i -> base_seed + i) in
  let costs =
    Array.of_list
      (costs ?pool ?law ?bcet_frac ?cache ~design ~implementation (Array.to_list seeds))
  in
  let static_cost =
    (design : Design.t).Design.cost
      (Methodology.simulate_implemented ~mode:Translator.Delay_graph.Static_wcet design
         implementation)
  in
  {
    runs;
    seeds;
    costs;
    mean = Numerics.Stats.mean costs;
    stddev = Numerics.Stats.stddev costs;
    cmin = Numerics.Stats.min costs;
    cmax = Numerics.Stats.max costs;
    p95 = Numerics.Stats.percentile costs 95.;
    static_cost;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>monte-carlo over %d runs (seeds %d..%d):@,\
    \  mean = %.6g  std = %.6g@,\
    \  min = %.6g  p95 = %.6g  max = %.6g@,\
    \  static (WCET) cost = %.6g@]"
    s.runs s.seeds.(0)
    s.seeds.(s.runs - 1)
    s.mean s.stddev s.cmin s.p95 s.cmax s.static_cost
