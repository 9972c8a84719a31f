module Sched = Aaa.Schedule
module Meth = Lifecycle.Methodology
module Design = Lifecycle.Design

type recovery_phases = {
  nominal_phase : float;
  transient_phase : float;
  degraded_phase : float;
  frozen_phase : float;
}

type standby_outcome = {
  takeover : (int * float) option;
  vote_primary : int;
  vote_standby : int;
  vote_held : int;
  divergences : int list;
  standby_events : Exec.Recovery.event list;
  decisions : Exec.Standby.decision list;
  standby_cost : float option;
  standby_post_cost : float option;
  switch_post_cost : float option;
  frozen_post_cost : float option;
}

type recovery_outcome = {
  retransmissions : int;
  recovered_transfers : int;
  stale_with : int;
  stale_without : int;
  events : Exec.Recovery.event list;
  detection : Exec.Recovery.confirmation option;
  switch_time : float option;
  post_switch_stale : int option;
  recovered_cost : float option;
  frozen_cost : float option;
  phases : recovery_phases option;
  standby : standby_outcome option;
}

type outcome = {
  scenario : Scenario.t;
  schedule : Sched.t option;
  replanned : bool;
  infeasible : bool;
  fits_period : bool;
  cost : float;
  degradation_pct : float;
  lost_transfers : int;
  stale_reads : int;
  overruns : int;
  recovery : recovery_outcome option;
}

type summary = {
  design_name : string;
  ideal_cost : float;
  nominal_cost : float;
  outcomes : outcome list;
  worst_degradation_pct : float;
  mean_degradation_pct : float;
  all_feasible : bool;
  all_fit : bool;
}

(* co-simulate the failure of [failed_operator] at [fail_time]: the
   nominal delay graph gated around the failure, plus — when a switch
   happened — the failover graph gated after it.  [switch_time =
   infinity] with no failover is the no-recovery counterfactual: the
   sample-holds freeze and the plant runs open-loop. *)
let recovery_engine ~design ~(nominal : Meth.implementation) ?failover ~fail_time
    ~switch_time ~failed_operator () =
  let built = design.Design.build () in
  let _graphs =
    Translator.Cosim.attach_recovery_delay_graph
      ?condition_feed:built.Design.condition_feed ~graph:built.Design.graph
      ~schedule:nominal.Meth.schedule ?failover ~binding:nominal.Meth.binding ~fail_time
      ~switch_time ~failed_operator ()
  in
  let engine = Meth.engine_with_probes built in
  Sim.Engine.run ~t_end:design.Design.horizon engine;
  engine

let evaluate ?(iterations = 200) ?strategy ?(replicas = []) ?pool ?recovery
    ?(standby = false) ?(bus_models = []) ~design ~architecture ~durations ~scenarios () =
  if scenarios = [] then invalid_arg "Robustness.evaluate: no scenarios";
  let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
  let nominal = Meth.implement ?strategy ~design ~architecture ~durations () in
  let ideal_cost = design.Design.cost (Meth.simulate_ideal design) in
  let nominal_cost = design.Design.cost (Meth.simulate_implemented design nominal) in
  let outcome scenario =
    let exclusion = Degrade.exclusion_of scenario in
    let replanned = exclusion.Degrade.operators <> [] in
    (* control-cost side: co-simulate through the graph of delays *)
    let schedule, infeasible, fits_period, cost =
      if replanned then
        match
          Degrade.replan ?strategy ~replicas ~algorithm:nominal.Meth.algorithm
            ~architecture ~durations ~nominal:nominal.Meth.schedule ~exclusion ()
        with
        | degraded ->
            let impl =
              {
                nominal with
                Meth.schedule = degraded;
                executive = Aaa.Codegen.generate degraded;
                static = Translator.Temporal_model.of_schedule degraded;
              }
            in
            ( Some degraded,
              false,
              Sched.fits_period degraded,
              design.Design.cost (Meth.simulate_implemented design impl) )
        | exception (Aaa.Adequation.Infeasible _ | Invalid_argument _) ->
            (None, true, false, Float.infinity)
      else begin
        let mode =
          Translator.Delay_graph.Jittered
            { law = Exec.Timing_law.Uniform; bcet_frac = 0.4; seed = scenario.Scenario.seed }
        in
        ( None,
          false,
          Sched.fits_period nominal.Meth.schedule,
          design.Design.cost (Meth.simulate_implemented ~mode design nominal) )
      end
    in
    (* executive side: the nominal deployment with the faults injected;
       bus-level events fold into the attached bus models (the control
       cost above stays bus-blind — the delay graph prices transfers
       with the temporal model, documented in the mli) *)
    let injection = Scenario.injection scenario ~architecture in
    let config =
      {
        Exec.Machine.default_config with
        iterations;
        seed = scenario.Scenario.seed;
        durations = Some durations;
        injection;
        bus_models = Scenario.apply_bus scenario ~architecture bus_models;
      }
    in
    let config =
      match design.Design.condition_runtime with
      | Some condition -> { config with Exec.Machine.condition }
      | None -> config
    in
    let trace = Meth.execute ~config design nominal in
    (* recovery side: the same seeded run with the online policy on,
       and — when a fail-stop is confirmed — the recovered vs frozen
       co-simulation of the same failure *)
    let recovery_outcome =
      match recovery with
      | None -> None
      | Some pol ->
          let failed_operator =
            match Scenario.failed_operators scenario with [ op ] -> Some op | _ -> None
          in
          let failover =
            match (failed_operator, schedule) with
            | Some op, Some degraded -> [ (op, Aaa.Codegen.generate degraded) ]
            | _ -> []
          in
          let pol = { pol with Exec.Recovery.failover } in
          let trace_with =
            Meth.execute ~config:{ config with Exec.Machine.recovery = pol } design
              nominal
          in
          let period = Aaa.Algorithm.period nominal.Meth.algorithm in
          let detection =
            Exec.Recovery.confirm pol
              ~operator_failed:injection.Exec.Injection.operator_failed
              ~operators:
                (List.map
                   (Aaa.Architecture.operator_name architecture)
                   (Aaa.Architecture.operators architecture))
              ~period ~iterations
          in
          let switch_time =
            Option.map
              (fun k -> float_of_int k *. period)
              trace_with.Exec.Machine.switched_at
          in
          (* hot standby: the replica executive (the failover copy)
             runs concurrently under the same seeded config; the voter
             takes over with zero blackout *)
          let standby_run =
            if not standby then None
            else
              match (failed_operator, failover) with
              | Some op, (op', sexe) :: _ when op' = op -> (
                  try
                    Some
                      (Exec.Standby.run
                         ~config:{ config with Exec.Machine.recovery = pol }
                         ~protects:op ~standby:sexe nominal.Meth.executive)
                  with Invalid_argument _ -> None)
              | _ -> None
          in
          let recovered_cost, frozen_cost, phases, standby_costs =
            match (detection, failed_operator, schedule, switch_time) with
            | Some conf, Some op, Some degraded, Some t_switch
              when t_switch < design.Design.horizon ->
                let fail_time = conf.Exec.Recovery.fail_time in
                let engine_rec =
                  recovery_engine ~design ~nominal ~failover:degraded ~fail_time
                    ~switch_time:t_switch ~failed_operator:op ()
                in
                let engine_frozen =
                  recovery_engine ~design ~nominal ~fail_time
                    ~switch_time:Float.infinity ~failed_operator:op ()
                in
                let recovered_cost = design.Design.cost engine_rec in
                let frozen_cost = design.Design.cost engine_frozen in
                let phases =
                  Option.map
                    (fun phase_cost ->
                      {
                        nominal_phase =
                          phase_cost engine_rec ~from_t:0. ~until_t:fail_time;
                        transient_phase =
                          phase_cost engine_rec ~from_t:fail_time ~until_t:t_switch;
                        degraded_phase =
                          phase_cost engine_rec ~from_t:t_switch
                            ~until_t:design.Design.horizon;
                        frozen_phase =
                          phase_cost engine_frozen ~from_t:t_switch
                            ~until_t:design.Design.horizon;
                      })
                    design.Design.phase_cost
                in
                (* the three-way comparison shares one post-failure
                   window [fail_time, horizon]: frozen (no recovery)
                   vs blackout-then-switch vs hot standby switching at
                   the voter's takeover instant *)
                let standby_costs =
                  match standby_run with
                  | None -> None
                  | Some st -> (
                      match st.Exec.Standby.takeover with
                      | Some (_, t_take) when t_take < design.Design.horizon ->
                          let engine_sb =
                            recovery_engine ~design ~nominal ~failover:degraded
                              ~fail_time ~switch_time:t_take ~failed_operator:op ()
                          in
                          let sb_cost = design.Design.cost engine_sb in
                          let posts =
                            Option.map
                              (fun phase_cost ->
                                ( phase_cost engine_sb ~from_t:fail_time
                                    ~until_t:design.Design.horizon,
                                  phase_cost engine_rec ~from_t:fail_time
                                    ~until_t:design.Design.horizon,
                                  phase_cost engine_frozen ~from_t:fail_time
                                    ~until_t:design.Design.horizon ))
                              design.Design.phase_cost
                          in
                          Some (Some sb_cost, posts)
                      | _ -> Some (None, None))
                in
                (Some recovered_cost, Some frozen_cost, phases, standby_costs)
            | _ ->
                ( None,
                  None,
                  None,
                  match standby_run with Some _ -> Some (None, None) | None -> None )
          in
          let standby_outcome =
            Option.map
              (fun st ->
                let p, s, h = Exec.Standby.tally st in
                let sb_cost, posts =
                  match standby_costs with Some (c, ps) -> (c, ps) | None -> (None, None)
                in
                {
                  takeover = st.Exec.Standby.takeover;
                  vote_primary = p;
                  vote_standby = s;
                  vote_held = h;
                  divergences = st.Exec.Standby.divergences;
                  standby_events = st.Exec.Standby.events;
                  decisions = Array.to_list st.Exec.Standby.decisions;
                  standby_cost = sb_cost;
                  standby_post_cost = Option.map (fun (a, _, _) -> a) posts;
                  switch_post_cost = Option.map (fun (_, b, _) -> b) posts;
                  frozen_post_cost = Option.map (fun (_, _, c) -> c) posts;
                })
              standby_run
          in
          Some
            {
              retransmissions = trace_with.Exec.Machine.retransmissions;
              recovered_transfers = trace_with.Exec.Machine.recovered_transfers;
              stale_with = trace_with.Exec.Machine.stale_reads;
              stale_without = trace.Exec.Machine.stale_reads;
              events = trace_with.Exec.Machine.recovery_events;
              detection;
              switch_time;
              post_switch_stale =
                Option.map
                  (fun (c : Exec.Machine.trace) -> c.Exec.Machine.stale_reads)
                  trace_with.Exec.Machine.continuation;
              recovered_cost;
              frozen_cost;
              phases;
              standby = standby_outcome;
            }
    in
    {
      scenario;
      schedule;
      replanned;
      infeasible;
      fits_period;
      cost;
      degradation_pct = (cost -. nominal_cost) /. nominal_cost *. 100.;
      lost_transfers = trace.Exec.Machine.lost_transfers;
      stale_reads = trace.Exec.Machine.stale_reads;
      overruns = trace.Exec.Machine.overruns;
      recovery = recovery_outcome;
    }
  in
  (* one independent adequation + co-simulation + injected machine run
     per scenario: the engine's unit of parallelism; scenario order is
     preserved and every value matches the sequential evaluation *)
  let outcomes = Explore.Pool.map pool outcome scenarios in
  let feasible = List.filter (fun o -> not o.infeasible) outcomes in
  let degradations = List.map (fun o -> o.degradation_pct) feasible in
  {
    design_name = design.Design.name;
    ideal_cost;
    nominal_cost;
    outcomes;
    worst_degradation_pct =
      List.fold_left Float.max Float.neg_infinity (List.map (fun o -> o.degradation_pct) outcomes);
    mean_degradation_pct =
      (if degradations = [] then Float.nan
       else Numerics.Stats.mean (Array.of_list degradations));
    all_feasible = List.for_all (fun o -> not o.infeasible) outcomes;
    all_fit = List.for_all (fun o -> o.fits_period) outcomes;
  }

let pp ppf s =
  Format.fprintf ppf "@[<v>robustness of %S: ideal %.6g, nominal implemented %.6g@,"
    s.design_name s.ideal_cost s.nominal_cost;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %s: " o.scenario.Scenario.name;
      if o.infeasible then Format.fprintf ppf "INFEASIBLE"
      else
        Format.fprintf ppf "cost %.6g (%+.2f %%)%s, lost %d, stale %d, overruns %d"
          o.cost o.degradation_pct
          (if o.fits_period then "" else " [overruns period]")
          o.lost_transfers o.stale_reads o.overruns;
      (match o.recovery with
      | None -> ()
      | Some r ->
          Format.fprintf ppf
            "@,    with recovery: retrans %d, recovered %d, stale %d (vs %d without)"
            r.retransmissions r.recovered_transfers r.stale_with r.stale_without;
          (match r.detection with
          | Some c ->
              Format.fprintf ppf "@,    fail-stop of %S at %g s confirmed at %g s"
                c.Exec.Recovery.operator c.Exec.Recovery.fail_time
                c.Exec.Recovery.confirm_time;
              Option.iter (fun t -> Format.fprintf ppf ", switched at %g s" t) r.switch_time
          | None -> ());
          (match r.phases with
          | Some p ->
              Format.fprintf ppf
                "@,    post-switch cost %.6g recovered vs %.6g without recovery"
                p.degraded_phase p.frozen_phase
          | None -> ());
          (match r.standby with
          | Some sb ->
              Format.fprintf ppf "@,    hot standby: %d/%d/%d primary/standby/held votes"
                sb.vote_primary sb.vote_standby sb.vote_held;
              (match sb.takeover with
              | Some (k, t) ->
                  Format.fprintf ppf ", takeover at iteration %d (t=%g, zero blackout)" k t
              | None -> Format.fprintf ppf ", no takeover");
              (match (sb.standby_post_cost, sb.switch_post_cost, sb.frozen_post_cost) with
              | Some sbc, Some swc, Some frc ->
                  Format.fprintf ppf
                    "@,    post-failure cost: %.6g hot-standby vs %.6g switch vs %.6g \
                     frozen"
                    sbc swc frc
              | _ -> ())
          | None -> ()));
      Format.fprintf ppf "@,")
    s.outcomes;
  Format.fprintf ppf "  worst degradation %+.2f %%, mean %+.2f %%@]"
    s.worst_degradation_pct s.mean_degradation_pct
