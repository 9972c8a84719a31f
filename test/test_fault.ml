open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation
module TL = Exec.Timing_law
module Machine = Exec.Machine
module Scenario = Fault.Scenario
module Degrade = Fault.Degrade
module Robustness = Fault.Robustness

(* The distributed sense → law → act chain of test_exec: sense and act
   on P0, law on P1, two transfers per iteration over the bus. *)
let chain () =
  let alg = Alg.create ~name:"chain" ~period:0.1 in
  let s = Alg.add_op alg ~name:"sense" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
  let c = Alg.add_op alg ~name:"law" ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] () in
  let a = Alg.add_op alg ~name:"act" ~kind:Alg.Actuator ~inputs:[| 1 |] () in
  Alg.depend alg ~src:(s, 0) ~dst:(c, 0);
  Alg.depend alg ~src:(c, 0) ~dst:(a, 0);
  let arch = Arch.bus_topology ~time_per_word:0.002 [ "P0"; "P1" ] in
  let d = Dur.create () in
  Dur.set d ~op:"sense" ~operator:"P0" 0.01;
  Dur.set d ~op:"law" ~operator:"P1" 0.01;
  Dur.set d ~op:"act" ~operator:"P0" 0.01;
  let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
  (alg, arch, sched, Aaa.Codegen.generate sched, (s, c, a))

let fork_join_procs = [ "P0"; "P1"; "P2" ]

let fork_join () =
  let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 fork_join_procs in
  let alg, d = Aaa.Workloads.fork_join ~period:0.5 ~branches:6 ~operators:fork_join_procs () in
  (alg, arch, d)

let loss_scenario ?(seed = 11) prob =
  Scenario.make ~name:"loss" ~seed [ Scenario.Message_loss { medium = None; prob } ]

let scenario_tests =
  [
    test "validation rejects malformed events" (fun () ->
        check_raises_invalid "prob > 1" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [ Scenario.Message_loss { medium = None; prob = 1.5 } ]));
        check_raises_invalid "empty window" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [ Scenario.Medium_outage { medium = "bus"; from_t = 2.; until_t = 1. } ]));
        check_raises_invalid "factor <= 1" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [
                   Scenario.Overrun_burst
                     { start_prob = 0.1; stop_prob = 0.1; overrun_prob = 0.5; factor = 1.0 };
                 ]));
        check_raises_invalid "negative fail time" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [ Scenario.Processor_failstop { operator = "P0"; at = -1. } ])));
    test "injection rejects names the architecture does not have" (fun () ->
        let _, arch, _, _, _ = chain () in
        check_raises_invalid "operator" (fun () ->
            ignore
              (Scenario.injection
                 (Scenario.make ~name:"x" ~seed:0
                    [ Scenario.Processor_failstop { operator = "P9"; at = 0. } ])
                 ~architecture:arch));
        check_raises_invalid "medium" (fun () ->
            ignore
              (Scenario.injection
                 (Scenario.make ~name:"x" ~seed:0
                    [ Scenario.Medium_outage { medium = "can7"; from_t = 0.; until_t = 1. } ])
                 ~architecture:arch)));
    test "the nominal scenario compiles to the null injection" (fun () ->
        let _, arch, _, _, _ = chain () in
        let inj = Scenario.injection (Scenario.nominal ~seed:3) ~architecture:arch in
        check_true "physically none" (Exec.Injection.is_none inj));
    test "loss sampling is a pure function of seed and coordinates" (fun () ->
        let _, arch, sched, _, _ = chain () in
        let decisions inj =
          List.concat_map
            (fun slot ->
              List.init 50 (fun k -> inj.Exec.Injection.transfer_lost ~iteration:k ~slot))
            sched.Sched.comm
        in
        let s = loss_scenario 0.5 in
        (* two independent compilations agree bit-for-bit, in any order *)
        let d1 = decisions (Scenario.injection s ~architecture:arch) in
        let d2 = List.rev (decisions (Scenario.injection s ~architecture:arch)) in
        check_true "same decisions" (d1 = List.rev d2);
        check_true "some lost" (List.exists Fun.id d1);
        check_true "some delivered" (List.exists not d1);
        let other = decisions (Scenario.injection (loss_scenario ~seed:12 0.5) ~architecture:arch) in
        check_true "seed matters" (d1 <> other));
    test "single_processor_failures covers every operator once" (fun () ->
        let _, arch, _ = fork_join () in
        let scenarios = Scenario.single_processor_failures ~at:0.25 ~seed:100 arch in
        check_int "one per operator" (Arch.operator_count arch) (List.length scenarios);
        List.iteri
          (fun i (s : Scenario.t) ->
            check_int "stride-1 seeds" (100 + i) s.Scenario.seed;
            check_int "one failure" 1 (List.length (Scenario.failed_operators s)))
          scenarios;
        check_true "all operators covered"
          (List.sort compare (List.concat_map Scenario.failed_operators scenarios)
          = List.sort compare fork_join_procs));
  ]

let machine_tests =
  [
    test "certain loss marks every remote read stale without touching time" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let base = { Machine.default_config with law = TL.Wcet; iterations = 50 } in
        let clean = Machine.run ~config:base exe in
        let inj = Scenario.injection (loss_scenario 1.0) ~architecture:arch in
        let trace = Machine.run ~config:{ base with injection = inj } exe in
        (* two transfers per iteration, all lost, all consumers stale *)
        check_int "lost" 100 trace.Machine.lost_transfers;
        check_int "stale" 100 trace.Machine.stale_reads;
        check_int "clean run counts nothing" 0 clean.Machine.lost_transfers;
        (* a lost transfer still consumes its slot: timing is unchanged *)
        check_vec ~eps:0. "identical timing" clean.Machine.iteration_end
          trace.Machine.iteration_end);
    test "fail-stop freezes the operator; downstream reads go stale" (fun () ->
        let _, arch, _, exe, (_, law, _) = chain () in
        let s =
          Scenario.make ~name:"kill_P1" ~seed:0
            [ Scenario.Processor_failstop { operator = "P1"; at = 0. } ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let config = { Machine.default_config with law = TL.Wcet; iterations = 40; injection = inj } in
        let trace = Machine.run ~config exe in
        let failed =
          List.filter (fun oe -> oe.Machine.oe_failed) trace.Machine.ops
        in
        check_int "law never executes" 40 (List.length failed);
        check_true "only P1's operation fails"
          (List.for_all (fun oe -> oe.Machine.oe_op = law) failed);
        Array.iter
          (fun t -> check_true "instants are nan" (Float.is_nan t))
          (Machine.instants trace law);
        (* only the law → act transfer carries a dead producer's value *)
        check_int "lost" 40 trace.Machine.lost_transfers;
        check_int "stale" 40 trace.Machine.stale_reads;
        check_true "still order-conformant" (Machine.order_conformant trace));
    test "a medium outage drops exactly the transfers departing inside it" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let s =
          Scenario.make ~name:"outage" ~seed:0
            [ Scenario.Medium_outage { medium = "bus"; from_t = 0.; until_t = 0.05 } ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let config = { Machine.default_config with law = TL.Wcet; iterations = 30; injection = inj } in
        let trace = Machine.run ~config exe in
        (* at WCET replay both iteration-0 transfers start before 0.05;
           every later iteration starts after the window closes *)
        check_int "iteration 0 loses both transfers" 2 trace.Machine.lost_transfers;
        check_int "both reads stale" 2 trace.Machine.stale_reads);
    test "an overrun burst stretches executions deterministically" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let s =
          Scenario.make ~name:"burst" ~seed:5
            [
              Scenario.Overrun_burst
                { start_prob = 1.0; stop_prob = 0.0; overrun_prob = 1.0; factor = 2.0 };
            ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let base = { Machine.default_config with law = TL.Wcet; iterations = 20 } in
        let clean = Machine.run ~config:base exe in
        let t1 = Machine.run ~config:{ base with injection = inj } exe in
        let t2 = Machine.run ~config:{ base with injection = inj } exe in
        Array.iteri
          (fun k e ->
            check_true "every iteration runs longer"
              (t1.Machine.iteration_end.(k) > e +. 0.009))
          clean.Machine.iteration_end;
        check_vec ~eps:0. "bit-for-bit reproducible" t1.Machine.iteration_end
          t2.Machine.iteration_end);
    test "injected bookkeeping is reproducible bit-for-bit" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let inj = Scenario.injection (loss_scenario 0.3) ~architecture:arch in
        let config = { Machine.default_config with iterations = 80; seed = 9; injection = inj } in
        let t1 = Machine.run ~config exe in
        let t2 = Machine.run ~config exe in
        check_int "same losses" t1.Machine.lost_transfers t2.Machine.lost_transfers;
        check_int "same stale reads" t1.Machine.stale_reads t2.Machine.stale_reads;
        check_true "losses occurred" (t1.Machine.lost_transfers > 0);
        check_vec ~eps:0. "same timing" t1.Machine.iteration_end t2.Machine.iteration_end);
  ]

let async_tests =
  [
    test "injected overrun bursts violate freshness in the TT baseline" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let s =
          Scenario.make ~name:"burst" ~seed:2
            [
              Scenario.Overrun_burst
                { start_prob = 1.0; stop_prob = 0.0; overrun_prob = 1.0; factor = 3.0 };
            ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let config =
          { Exec.Machine.default_config with iterations = 20; law = TL.Wcet; injection = inj }
        in
        let trace = Exec.Async.run ~config exe in
        (* 3x WCET pushes every producer past its bus slot / read instant *)
        check_true "remote reads checked" (trace.Exec.Async.remote_consumptions > 0);
        check_int "every remote read is stale" trace.Exec.Async.remote_consumptions
          trace.Exec.Async.violations;
        let again = Exec.Async.run ~config exe in
        check_int "deterministic count" trace.Exec.Async.violations again.Exec.Async.violations);
    test "certain loss on the wire violates every remote read" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let inj = Scenario.injection (loss_scenario 1.0) ~architecture:arch in
        let config =
          { Exec.Machine.default_config with iterations = 25; law = TL.Wcet; injection = inj }
        in
        let trace = Exec.Async.run ~config exe in
        check_int "all transfers dropped" 50 trace.Exec.Async.lost_transfers;
        check_int "all reads stale" trace.Exec.Async.remote_consumptions
          trace.Exec.Async.violations;
        check_true "reads were checked" (trace.Exec.Async.remote_consumptions > 0));
    test "a fail-stopped producer starves its consumers" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let s =
          Scenario.make ~name:"kill_P1" ~seed:0
            [ Scenario.Processor_failstop { operator = "P1"; at = 0. } ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let config =
          { Exec.Machine.default_config with iterations = 30; law = TL.Wcet; injection = inj }
        in
        let trace = Exec.Async.run ~config exe in
        check_true "stale reads appear" (trace.Exec.Async.violations > 0);
        let again = Exec.Async.run ~config exe in
        check_int "deterministic" trace.Exec.Async.violations again.Exec.Async.violations);
    test "partial injected loss counts are deterministic and bounded" (fun () ->
        let _, arch, _, exe, _ = chain () in
        let inj = Scenario.injection (loss_scenario ~seed:21 0.4) ~architecture:arch in
        let config =
          { Exec.Machine.default_config with iterations = 100; law = TL.Wcet; injection = inj }
        in
        let t1 = Exec.Async.run ~config exe in
        let t2 = Exec.Async.run ~config exe in
        check_int "same violations" t1.Exec.Async.violations t2.Exec.Async.violations;
        check_int "same losses" t1.Exec.Async.lost_transfers t2.Exec.Async.lost_transfers;
        check_true "some lost" (t1.Exec.Async.lost_transfers > 0);
        check_true "not all lost" (t1.Exec.Async.lost_transfers < 200);
        check_true "violations bounded by checked reads"
          (t1.Exec.Async.violations <= t1.Exec.Async.remote_consumptions));
  ]

let degrade_tests =
  [
    test "restrict drops the operator and keeps the surviving bus" (fun () ->
        let _, arch, _ = fork_join () in
        let d = Degrade.restrict arch { Degrade.operators = [ "P1" ]; media = [] } in
        check_int "two survivors" 2 (Arch.operator_count d);
        check_true "P1 gone" (Arch.find_operator d "P1" = None);
        check_int "bus survives with two drops" 1 (Arch.medium_count d);
        Arch.validate d);
    test "restrict rejects unknown names and total destruction" (fun () ->
        let _, arch, _ = fork_join () in
        check_raises_invalid "unknown operator" (fun () ->
            ignore (Degrade.restrict arch { Degrade.operators = [ "P9" ]; media = [] }));
        check_raises_invalid "no survivors" (fun () ->
            ignore
              (Degrade.restrict arch { Degrade.operators = fork_join_procs; media = [] })));
    test "a point-to-point link dies with either end, a bus survives" (fun () ->
        let full = Arch.fully_connected ~time_per_word:0.001 [ "A"; "B"; "C" ] in
        let d = Degrade.restrict full { Degrade.operators = [ "C" ]; media = [] } in
        check_int "only the A-B link left" 1 (Arch.medium_count d);
        check_int "two survivors" 2 (Arch.operator_count d));
    test "replan never places work on the excluded operator" (fun () ->
        let alg, arch, d = fork_join () in
        let nominal = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let sched =
          Degrade.replan ~algorithm:alg ~architecture:arch ~durations:d ~nominal
            ~exclusion:{ Degrade.operators = [ "P1" ]; media = [] }
            ()
        in
        List.iter
          (fun (cs : Sched.comp_slot) ->
            check_true "not on P1"
              (Arch.operator_name sched.Sched.architecture cs.Sched.cs_operator <> "P1"))
          sched.Sched.comp);
    test "passive replicas catch the operations of a dead operator" (fun () ->
        let alg, arch, d = fork_join () in
        (* nominally force fusion onto P0, declare its replica on P2 *)
        let nominal =
          Adq.run ~pins:[ ("fusion", "P0") ] ~algorithm:alg ~architecture:arch ~durations:d ()
        in
        let sched =
          Degrade.replan ~replicas:[ ("fusion", "P2") ] ~algorithm:alg ~architecture:arch
            ~durations:d ~nominal
            ~exclusion:{ Degrade.operators = [ "P0" ]; media = [] }
            ()
        in
        let fusion =
          List.find (fun op -> Alg.op_name alg op = "fusion") (Alg.ops alg)
        in
        check_true "fusion runs on its replica"
          (Arch.operator_name sched.Sched.architecture (Sched.operator_of sched fusion) = "P2"));
    test "failover table covers every single failure and fits the period" (fun () ->
        (* the acceptance scenario: fork_join on three processors *)
        let alg, arch, d = fork_join () in
        let nominal = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let table =
          Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
        in
        check_int "one row per operator" (Arch.operator_count arch) (List.length table);
        List.iter
          (fun (f : Degrade.failover) ->
            check_true "feasible" (f.Degrade.schedule <> None);
            check_true "fits the 0.5 s period" f.Degrade.fits;
            check_true "degraded but finite" (Float.is_finite f.Degrade.makespan))
          table;
        let again =
          Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
        in
        List.iter2
          (fun (a : Degrade.failover) (b : Degrade.failover) ->
            check_true "bit-for-bit equal makespans" (a.Degrade.makespan = b.Degrade.makespan))
          table again);
    test "a seeded single-failure scenario yields a fitting degraded schedule" (fun () ->
        let alg, arch, d = fork_join () in
        let nominal = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let scenario = List.hd (Scenario.single_processor_failures ~seed:7 arch) in
        let replay () =
          Degrade.replan ~algorithm:alg ~architecture:arch ~durations:d ~nominal
            ~exclusion:(Degrade.exclusion_of scenario) ()
        in
        let sched = replay () in
        check_true "fits the period" (Sched.fits_period sched);
        check_true "slower than nominal" (sched.Sched.makespan >= nominal.Sched.makespan);
        check_float ~eps:0. "reproducible from the seed" sched.Sched.makespan
          (replay ()).Sched.makespan);
    test "an operation with no surviving operator is infeasible, not fatal" (fun () ->
        let alg, arch, sched, _, _ = chain () in
        ignore sched;
        (* law only runs on P1: failing P1 cannot be replanned *)
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let nominal = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let table =
          Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
        in
        let row name = List.find (fun f -> f.Degrade.failed_operator = name) table in
        check_true "losing P1 is infeasible" ((row "P1").Degrade.schedule = None);
        check_false "and cannot fit" (row "P1").Degrade.fits);
  ]

(* The lifecycle fixture: the dc-motor PID loop on two processors. *)
let dc_design () =
  Lifecycle.Design.pid_loop ~name:"dc"
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |]
    ~gains:{ Control.Pid.kp = 10.; ki = 5.; kd = 0.5 }
    ~ts:0.05 ~reference:1. ~horizon:2. ()

let dc_durations () =
  let d = Dur.create () in
  let all = [ "P0"; "P1" ] in
  Dur.set_everywhere d ~op:"reference" ~operators:all 0.001;
  Dur.set_everywhere d ~op:"sample_y" ~operators:all 0.004;
  Dur.set_everywhere d ~op:"pid" ~operators:all 0.012;
  Dur.set_everywhere d ~op:"hold_u" ~operators:all 0.004;
  d

let dc_arch () = Arch.bus_topology ~time_per_word:0.002 ~latency:0.001 [ "P0"; "P1" ]

let dc_summary =
  (* computed once: the co-simulations dominate the suite's runtime *)
  lazy
    (let architecture = dc_arch () in
     let scenarios =
       Scenario.single_processor_failures ~at:0.5 ~seed:42 architecture
       @ [ loss_scenario ~seed:44 0.2 ]
     in
     Robustness.evaluate ~iterations:40 ~design:(dc_design ()) ~architecture
       ~durations:(dc_durations ()) ~scenarios ())

let robustness_tests =
  [
    test "every single failure has a feasible failover meeting the period" (fun () ->
        let s = Lazy.force dc_summary in
        check_int "three scenarios" 3 (List.length s.Robustness.outcomes);
        check_true "all feasible" s.Robustness.all_feasible;
        List.iter
          (fun (o : Robustness.outcome) ->
            if o.Robustness.replanned then begin
              check_false "not infeasible" o.Robustness.infeasible;
              check_true "failover schedule produced" (o.Robustness.schedule <> None);
              check_true "fits the period" o.Robustness.fits_period
            end
            else check_true "timing scenarios keep the mapping" (o.Robustness.schedule = None))
          s.Robustness.outcomes);
    test "degradation is quantified against the nominal implemented cost" (fun () ->
        let s = Lazy.force dc_summary in
        check_true "nominal cost positive" (s.Robustness.nominal_cost > 0.);
        check_true "ideal below implemented" (s.Robustness.ideal_cost < s.Robustness.nominal_cost);
        List.iter
          (fun (o : Robustness.outcome) ->
            check_true "cost finite" (Float.is_finite o.Robustness.cost);
            check_float ~eps:1e-9 "degradation restates the cost ratio"
              ((o.Robustness.cost -. s.Robustness.nominal_cost)
               /. s.Robustness.nominal_cost *. 100.)
              o.Robustness.degradation_pct;
            check_true "worst bounds each"
              (s.Robustness.worst_degradation_pct >= o.Robustness.degradation_pct -. 1e-12))
          s.Robustness.outcomes);
    test "the evaluation reproduces bit-for-bit from the same seeds" (fun () ->
        let s1 = Lazy.force dc_summary in
        let architecture = dc_arch () in
        let scenarios =
          Scenario.single_processor_failures ~at:0.5 ~seed:42 architecture
          @ [ loss_scenario ~seed:44 0.2 ]
        in
        let s2 =
          Robustness.evaluate ~iterations:40 ~design:(dc_design ()) ~architecture
            ~durations:(dc_durations ()) ~scenarios ()
        in
        check_float ~eps:0. "nominal cost" s1.Robustness.nominal_cost s2.Robustness.nominal_cost;
        List.iter2
          (fun (a : Robustness.outcome) (b : Robustness.outcome) ->
            check_float ~eps:0. "cost" a.Robustness.cost b.Robustness.cost;
            check_int "lost" a.Robustness.lost_transfers b.Robustness.lost_transfers;
            check_int "stale" a.Robustness.stale_reads b.Robustness.stale_reads;
            check_int "overruns" a.Robustness.overruns b.Robustness.overruns)
          s1.Robustness.outcomes s2.Robustness.outcomes;
        check_float ~eps:0. "worst" s1.Robustness.worst_degradation_pct
          s2.Robustness.worst_degradation_pct);
    test "the executive side of a fail-stop shows up in the counters" (fun () ->
        let s = Lazy.force dc_summary in
        (* at least one processor hosts a remote producer: killing it
           must surface lost transfers and stale reads *)
        check_true "some scenario loses transfers"
          (List.exists
             (fun (o : Robustness.outcome) ->
               o.Robustness.replanned && o.Robustness.lost_transfers > 0)
             s.Robustness.outcomes));
    test "an empty scenario list is rejected" (fun () ->
        check_raises_invalid "no scenarios" (fun () ->
            ignore
              (Robustness.evaluate ~design:(dc_design ()) ~architecture:(dc_arch ())
                 ~durations:(dc_durations ()) ~scenarios:[] ())));
    test "the markdown robustness section reports the table" (fun () ->
        let s = Lazy.force dc_summary in
        let md = Fault.Fault_report.markdown_section s in
        check_true "section header" (contains md "## Robustness");
        check_true "scenario rows" (contains md "failstop_P0");
        check_true "verdict" (contains md "degradation"));
    test "the lifecycle report embeds the robustness section" (fun () ->
        let s = Lazy.force dc_summary in
        let design = dc_design () in
        let c =
          Lifecycle.Methodology.evaluate ~design ~architecture:(dc_arch ())
            ~durations:(dc_durations ()) ()
        in
        let md =
          Lifecycle.Report.markdown ~robustness:(Fault.Fault_report.markdown_section s) design c
        in
        check_true "cost section still present" (contains md "## Cost comparison");
        check_true "robustness appended" (contains md "## Robustness"));
    test "failover rows render in markdown" (fun () ->
        let alg, arch, d = fork_join () in
        let nominal = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let table =
          Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
        in
        let md = Fault.Fault_report.failover_markdown table in
        check_true "header" (contains md "failed operator");
        List.iter
          (fun p -> check_true ("row " ^ p) (contains md p))
          fork_join_procs);
  ]

let suites =
  [
    ("fault.scenario", scenario_tests);
    ("fault.machine_injection", machine_tests);
    ("fault.async_injection", async_tests);
    ("fault.degrade", degrade_tests);
    ("fault.robustness", robustness_tests);
  ]
