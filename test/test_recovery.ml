open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation
module TL = Exec.Timing_law
module Machine = Exec.Machine
module Async = Exec.Async
module Recovery = Exec.Recovery
module Injection = Exec.Injection
module Scenario = Fault.Scenario
module Degrade = Fault.Degrade
module Robustness = Fault.Robustness
module Metrics = Control.Metrics

(* The distributed sense → law → act chain of test_fault: law pinned
   on P1, so every iteration carries two bus transfers to lose and
   retransmit. *)
let dist_chain () =
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
  (alg, arch, d, sched, Aaa.Codegen.generate sched)

(* A parallel fork/join on two processors: every operation runs
   anywhere, so each single-operator failure has a feasible failover
   schedule to switch to. *)
let fj () =
  let operators = [ "P0"; "P1" ] in
  let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 operators in
  (* branch WCET chosen so the whole algorithm still fits one surviving
     processor: every single-operator failover is feasible *)
  let alg, d =
    Aaa.Workloads.fork_join ~period:0.5 ~branch_wcet:0.1 ~branches:4 ~operators ()
  in
  let nominal = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
  (alg, arch, d, nominal, Aaa.Codegen.generate nominal)

let always_lost ~iteration:_ ~slot:_ = true
let retries_lost ~attempt:_ ~iteration:_ ~slot:_ = true

(* ------------------------------------------------------------------ *)

let policy_tests =
  [
    test "make validates its parameters under REC001" (fun () ->
        check_raises_invalid "period" (fun () -> ignore (Recovery.make ~period:0. ()));
        check_raises_invalid "negative retries" (fun () ->
            ignore (Recovery.make ~max_retries:(-1) ~period:0.1 ()));
        check_raises_invalid "backoff factor" (fun () ->
            ignore (Recovery.make ~backoff_factor:0.5 ~period:0.1 ()));
        check_raises_invalid "heartbeat k" (fun () ->
            ignore (Recovery.make ~heartbeat_k:0 ~period:0.1 ()));
        match Recovery.make ~max_retries:(-1) ~period:0.1 () with
        | exception Invalid_argument msg ->
            check_true "message carries the rule id" (contains msg "[REC001]")
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "disabled turns every mechanism off" (fun () ->
        check_false "no retransmission" (Recovery.retransmission_enabled Recovery.disabled);
        check_false "no supervisor" (Recovery.supervisor_enabled Recovery.disabled);
        check_false "no watchdog" Recovery.disabled.Recovery.freshness_watchdog;
        let p = Recovery.make ~period:0.1 () in
        check_true "make enables retransmission" (Recovery.retransmission_enabled p);
        check_true "make enables the supervisor" (Recovery.supervisor_enabled p));
    test "backoff is geometric and the worst case sums it" (fun () ->
        let p =
          Recovery.make ~max_retries:3 ~backoff_base:0.01 ~backoff_factor:2. ~period:0.1 ()
        in
        check_float "first" 0.01 (Recovery.backoff_delay p ~attempt:1);
        check_float "second" 0.02 (Recovery.backoff_delay p ~attempt:2);
        check_float "third" 0.04 (Recovery.backoff_delay p ~attempt:3);
        check_float "worst case" (0.01 +. 0.02 +. 0.04 +. (3. *. 0.005))
          (Recovery.worst_case_retry_time p ~transfer_duration:0.005));
    test "first_failure bisects a monotone fail-stop" (fun () ->
        match Recovery.first_failure ~failed:(fun ~time -> time >= 0.37) ~horizon:2. with
        | None -> Alcotest.fail "expected a failure instant"
        | Some t ->
            check_float ~eps:1e-9 "bisected" 0.37 t;
            check_true "alive predicate yields None"
              (Recovery.first_failure ~failed:(fun ~time:_ -> false) ~horizon:2. = None));
    test "confirmation samples heartbeats at the periodic releases" (fun () ->
        let p = Recovery.make ~heartbeat_timeout:0.1 ~heartbeat_k:2 ~blackout:0.1 ~period:0.1 () in
        let operator_failed ~operator ~time = operator = "P1" && time >= 0.22 in
        match
          Recovery.confirm p ~operator_failed ~operators:[ "P0"; "P1" ] ~period:0.1
            ~iterations:20
        with
        | None -> Alcotest.fail "expected a confirmation"
        | Some c ->
            check_true "right operator" (c.Recovery.operator = "P1");
            check_float ~eps:1e-9 "bisected failure" 0.22 c.Recovery.fail_time;
            check_int "first missed release" 3 c.Recovery.first_missed;
            (* (3 + 2 − 1)·0.1 + 0.1 *)
            check_float ~eps:1e-9 "confirm instant" 0.5 c.Recovery.confirm_time;
            check_int "switch release after the blackout" 6
              (Recovery.switch_iteration p ~confirm_time:c.Recovery.confirm_time
                 ~period:0.1));
    test "a healthy run confirms nothing" (fun () ->
        let p = Recovery.make ~period:0.1 () in
        check_true "none"
          (Recovery.confirm p
             ~operator_failed:(fun ~operator:_ ~time:_ -> false)
             ~operators:[ "P0" ] ~period:0.1 ~iterations:50
          = None));
    test "is_none is structural, not physical" (fun () ->
        check_true "none itself" (Injection.is_none Injection.none);
        check_true "make () shares none's closures" (Injection.is_none (Injection.make ()));
        check_true "record update of none stays none"
          (Injection.is_none { Injection.none with transfer_lost = Injection.none.Injection.transfer_lost });
        check_false "a custom decision is an injection"
          (Injection.is_none (Injection.make ~retry_lost:(fun ~attempt:_ ~iteration:_ ~slot:_ -> false) ())));
  ]

(* ------------------------------------------------------------------ *)

let machine_tests =
  [
    test "the freshness watchdog dates stale reads without touching time" (fun () ->
        let _, _, _, _, exe = dist_chain () in
        let inj = Injection.make ~transfer_lost:always_lost () in
        let base = { Machine.default_config with law = TL.Wcet; iterations = 20; injection = inj } in
        let plain = Machine.run ~config:base exe in
        let pol = { Recovery.disabled with Recovery.freshness_watchdog = true } in
        let watched = Machine.run ~config:{ base with recovery = pol } exe in
        check_vec ~eps:0. "identical timing" plain.Machine.iteration_end
          watched.Machine.iteration_end;
        check_int "same stale count" plain.Machine.stale_reads watched.Machine.stale_reads;
        check_int "no retries spent" 0 watched.Machine.retransmissions;
        check_int "one event per stale read" watched.Machine.stale_reads
          (List.length
             (List.filter
                (function Recovery.Stale_detected _ -> true | _ -> false)
                watched.Machine.recovery_events));
        check_true "events chronological"
          (List.sort Recovery.compare_event watched.Machine.recovery_events
          = watched.Machine.recovery_events));
    test "retransmission recovers certain loss when retries survive" (fun () ->
        let _, _, _, _, exe = dist_chain () in
        let inj = Injection.make ~transfer_lost:always_lost () in
        let base = { Machine.default_config with law = TL.Wcet; iterations = 20; injection = inj } in
        let without = Machine.run ~config:base exe in
        let with_r =
          Machine.run ~config:{ base with recovery = Recovery.make ~period:0.1 () } exe
        in
        (* two transfers per iteration, every instance dropped once *)
        check_int "baseline loses everything" 40 without.Machine.lost_transfers;
        check_int "every drop recovered" 40 with_r.Machine.recovered_transfers;
        check_int "nothing stays lost" 0 with_r.Machine.lost_transfers;
        check_int "no stale reads" 0 with_r.Machine.stale_reads;
        check_int "one retry per drop" 40 with_r.Machine.retransmissions;
        check_true "recovery dated" (List.exists
             (function Recovery.Transfer_recovered _ -> true | _ -> false)
             with_r.Machine.recovery_events);
        (* a retry consumes real medium time *)
        check_true "completions pushed later"
          (with_r.Machine.iteration_end.(0) > without.Machine.iteration_end.(0)));
    test "the per-period budget bounds the attempts; exhaustion stays lost" (fun () ->
        let _, _, _, _, exe = dist_chain () in
        let inj = Injection.make ~transfer_lost:always_lost ~retry_lost:retries_lost () in
        let base = { Machine.default_config with law = TL.Wcet; iterations = 20; injection = inj } in
        let with_r =
          Machine.run ~config:{ base with recovery = Recovery.make ~period:0.1 () } exe
        in
        check_int "nothing recovered" 0 with_r.Machine.recovered_transfers;
        check_int "all instances lost" 40 with_r.Machine.lost_transfers;
        (* 2 chains × max_retries 2 per iteration = the budget of 4 *)
        check_int "attempts capped by the budget" 80 with_r.Machine.retransmissions;
        check_true "exhaustion dated"
          (List.exists
             (function Recovery.Retries_exhausted _ -> true | _ -> false)
             with_r.Machine.recovery_events));
    test "recovery can itself cause overruns (the REC002 hazard, observed)" (fun () ->
        let _, _, _, _, exe = dist_chain () in
        let inj = Injection.make ~transfer_lost:always_lost () in
        let base = { Machine.default_config with law = TL.Wcet; iterations = 20; injection = inj } in
        let without = Machine.run ~config:base exe in
        let pol = Recovery.make ~backoff_base:0.05 ~period:0.1 () in
        let with_r = Machine.run ~config:{ base with recovery = pol } exe in
        check_int "no overruns without recovery" 0 without.Machine.overruns;
        check_true "big backoffs spill past the release" (with_r.Machine.overruns > 0));
    test "a confirmed fail-stop switches to the failover executive mid-run" (fun () ->
        let alg, arch, d, nominal, exe = fj () in
        ignore alg;
        let failover =
          Degrade.failover_executives
            (Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d
               ~nominal ())
        in
        let pol = Recovery.make ~failover ~period:0.5 () in
        (* P0 hosts the sensor: killing it starves every transfer *)
        let inj =
          Scenario.injection
            (Scenario.make ~name:"kill_P0" ~seed:9
               [ Scenario.Processor_failstop { operator = "P0"; at = 0.9 } ])
            ~architecture:arch
        in
        let base =
          {
            Machine.default_config with
            law = TL.Wcet;
            iterations = 12;
            durations = Some d;
            injection = inj;
          }
        in
        let without = Machine.run ~config:base exe in
        let with_r = Machine.run ~config:{ base with recovery = pol } exe in
        check_true "baseline goes stale" (without.Machine.stale_reads > 0);
        (* fail 0.9 → releases 2,3 missed → confirm 2.0 → blackout 0.5 → 5 *)
        check_true "switched at release 5" (with_r.Machine.switched_at = Some 5);
        (match with_r.Machine.detection_latency with
        | None -> Alcotest.fail "expected a detection latency"
        | Some l -> check_float ~eps:1e-6 "confirm − fail" 1.1 l);
        (match with_r.Machine.continuation with
        | None -> Alcotest.fail "expected a failover phase"
        | Some c -> check_int "remaining iterations" 7 c.Machine.iterations);
        check_true "confirmation dated"
          (List.exists
             (function
               | Recovery.Failstop_confirmed { operator = "P0"; _ } -> true
               | _ -> false)
             with_r.Machine.recovery_events);
        check_true "switch dated"
          (List.exists
             (function
               | Recovery.Mode_switched { iteration = 5; operator = "P0"; _ } -> true
               | _ -> false)
             with_r.Machine.recovery_events);
        check_true "post-switch phase stops going stale"
          (with_r.Machine.stale_reads < without.Machine.stale_reads);
        check_true "both phases order conformant" (Machine.order_conformant with_r);
        let again = Machine.run ~config:{ base with recovery = pol } exe in
        check_true "timeline reproduces bit-for-bit"
          (with_r.Machine.recovery_events = again.Machine.recovery_events);
        check_vec ~eps:0. "timing reproduces bit-for-bit" with_r.Machine.iteration_end
          again.Machine.iteration_end);
    test "no failover executive: the fail-stop is confirmed but not switched" (fun () ->
        let _, arch, d, _, exe = fj () in
        let pol = Recovery.make ~period:0.5 () in
        let inj =
          Scenario.injection
            (Scenario.make ~name:"kill_P0" ~seed:9
               [ Scenario.Processor_failstop { operator = "P0"; at = 0.9 } ])
            ~architecture:arch
        in
        let trace =
          Machine.run
            ~config:
              {
                Machine.default_config with
                law = TL.Wcet;
                iterations = 12;
                durations = Some d;
                injection = inj;
                recovery = pol;
              }
            exe
        in
        check_true "no switch" (trace.Machine.switched_at = None);
        check_true "no continuation" (trace.Machine.continuation = None);
        check_true "still detected" (trace.Machine.detection_latency <> None);
        check_true "confirmation dated"
          (List.exists
             (function Recovery.Failstop_confirmed _ -> true | _ -> false)
             trace.Machine.recovery_events));
    qtest "retransmission keeps order conformance and accounts every drop" ~count:40
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let _, arch, _, _, exe = dist_chain () in
        let s =
          Scenario.make ~name:"loss" ~seed
            [ Scenario.Message_loss { medium = None; prob = 0.3 } ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let base = { Machine.default_config with iterations = 20; injection = inj } in
        let without = Machine.run ~config:base exe in
        let with_r =
          Machine.run ~config:{ base with recovery = Recovery.make ~period:0.1 () } exe
        in
        Machine.order_conformant with_r
        && with_r.Machine.retransmissions >= with_r.Machine.recovered_transfers
        && with_r.Machine.recovered_transfers + with_r.Machine.lost_transfers
           = without.Machine.lost_transfers);
  ]

(* ------------------------------------------------------------------ *)

let async_tests =
  [
    test "the static-table executor retries dropped slots in place" (fun () ->
        let _, _, _, _, exe = dist_chain () in
        let inj = Injection.make ~transfer_lost:always_lost () in
        let base = { Machine.default_config with iterations = 20; injection = inj } in
        let without = Async.run ~config:base exe in
        let with_r =
          Async.run ~config:{ base with Machine.recovery = Recovery.make ~period:0.1 () } exe
        in
        check_true "baseline violates freshness" (without.Async.violations > 0);
        check_int "every drop recovered" without.Async.lost_transfers
          with_r.Async.recovered_transfers;
        check_int "nothing stays lost" 0 with_r.Async.lost_transfers;
        (* time-triggered reads stay at their planned offsets: the
           retried payload lands after them, so this period's read is
           still a (dated) freshness violation *)
        check_int "reads still miss the planned offsets" without.Async.violations
          with_r.Async.violations;
        check_true "recovery dated"
          (List.exists
             (function Recovery.Transfer_recovered _ -> true | _ -> false)
             with_r.Async.recovery_events);
        check_true "events chronological"
          (List.sort Recovery.compare_event with_r.Async.recovery_events
          = with_r.Async.recovery_events));
    test "a watchdog-only policy replays the baseline's RNG stream" (fun () ->
        let _, arch, _, _, exe = dist_chain () in
        let s =
          Scenario.make ~name:"loss" ~seed:21
            [ Scenario.Message_loss { medium = None; prob = 0.3 } ]
        in
        let inj = Scenario.injection s ~architecture:arch in
        let base = { Machine.default_config with iterations = 30; injection = inj } in
        let plain = Async.run ~config:base exe in
        let pol = { Recovery.disabled with Recovery.freshness_watchdog = true } in
        let watched = Async.run ~config:{ base with Machine.recovery = pol } exe in
        check_int "same violations" plain.Async.violations watched.Async.violations;
        check_int "same losses" plain.Async.lost_transfers watched.Async.lost_transfers;
        check_int "same overruns" plain.Async.overruns watched.Async.overruns;
        check_int "one event per violation" watched.Async.violations
          (List.length watched.Async.recovery_events));
  ]

(* ------------------------------------------------------------------ *)

let clip_tests =
  [
    test "clip interpolates its boundaries" (fun () ->
        let tr = Metrics.of_arrays [| 0.; 1.; 2. |] [| 0.; 2.; 4. |] in
        let w = Metrics.clip ~from_t:0.5 ~until_t:1.5 tr in
        check_float "left boundary" 1. w.Metrics.values.(0);
        check_float "right boundary" 3. w.Metrics.values.(Array.length w.Metrics.values - 1);
        check_raises_invalid "inverted window" (fun () ->
            ignore (Metrics.clip ~from_t:1. ~until_t:0.5 tr)));
    test "integral metrics compose exactly across adjacent windows" (fun () ->
        let tr =
          Metrics.of_arrays
            [| 0.; 0.3; 0.9; 1.4; 2.; 2.7 |]
            [| 0.; 1.2; 0.4; 1.9; 0.8; 1.1 |]
        in
        (* cuts on existing samples are exact for any reference *)
        let whole = Metrics.iae ~reference:1. tr in
        let split cut =
          Metrics.iae ~reference:1. (Metrics.clip ~from_t:0. ~until_t:cut tr)
          +. Metrics.iae ~reference:1. (Metrics.clip ~from_t:cut ~until_t:2.7 tr)
        in
        check_float ~eps:1e-12 "cut on a sample" whole (split 0.9);
        (* in-segment cuts are exact when the error keeps its sign
           there (the trapezoidal quadrature of |e| is linear on the
           segment); reference 0 keeps every segment sign-constant *)
        let whole0 = Metrics.iae ~reference:0. tr in
        let split0 cut =
          Metrics.iae ~reference:0. (Metrics.clip ~from_t:0. ~until_t:cut tr)
          +. Metrics.iae ~reference:0. (Metrics.clip ~from_t:cut ~until_t:2.7 tr)
        in
        check_float ~eps:1e-12 "cut between samples" whole0 (split0 1.13));
  ]

(* ------------------------------------------------------------------ *)

let has rule diags = List.exists (fun (d : Verify.Diag.t) -> d.Verify.Diag.rule = rule) diags

let verify_tests =
  [
    test "REC001 catches a malformed policy record" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let bad = { (Recovery.make ~period:0.1 ()) with Recovery.max_retries = -1 } in
        let diags = Verify.Recovery_rules.check bad sched in
        check_true "REC001 raised" (has "REC001" diags);
        check_true "as an error" (Verify.Diag.has_errors diags));
    test "REC002 warns when the retry budget cannot fit the period" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let p =
          Recovery.make ~max_retries:5 ~retry_budget:10 ~backoff_base:0.05 ~period:0.1 ()
        in
        check_true "REC002 raised" (has "REC002" (Verify.Recovery_rules.check p sched));
        let tame = Recovery.make ~period:0.1 () in
        check_false "defaults stay quiet"
          (has "REC002" (Verify.Recovery_rules.check tame sched)));
    test "REC003 warns when the timeout undercuts the schedule" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let p = Recovery.make ~heartbeat_timeout:0.001 ~period:0.1 () in
        check_true "REC003 raised" (has "REC003" (Verify.Recovery_rules.check p sched)));
    test "REC004 lists the operators without a failover executive" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let p = Recovery.make ~period:0.1 () in
        let diags = Verify.Recovery_rules.check p sched in
        check_true "REC004 raised" (has "REC004" diags);
        check_int "one per uncovered operator" 2
          (List.length
             (List.filter (fun (d : Verify.Diag.t) -> d.Verify.Diag.rule = "REC004") diags)));
    test "run_all checks a supplied recovery policy" (fun () ->
        let design =
          Lifecycle.Design.pid_loop ~name:"dc"
            ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
            ~x0:[| 0.; 0. |]
            ~gains:{ Control.Pid.kp = 10.; ki = 5.; kd = 0.5 }
            ~ts:0.05 ~reference:1. ~horizon:2. ()
        in
        let diags = Verify.run_all ~recovery:(Recovery.make ~period:0.05 ()) design in
        check_true "policy rules run in stage 3" (has "REC004" diags);
        check_false "no errors on the seed design" (Verify.Diag.has_errors diags));
  ]

(* ------------------------------------------------------------------ *)

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

let recovery_summary =
  (* computed once: each scenario runs four executive traces and up to
     two extra co-simulations *)
  lazy
    (let architecture = dc_arch () in
     let scenarios =
       Scenario.single_processor_failures ~at:0.2 ~seed:42 architecture
       @ [
           Scenario.make ~name:"loss" ~seed:44
             [ Scenario.Message_loss { medium = None; prob = 0.2 } ];
         ]
     in
     Robustness.evaluate ~iterations:40
       ~recovery:(Recovery.make ~period:0.05 ())
       ~design:(dc_design ()) ~architecture ~durations:(dc_durations ()) ~scenarios ())

let robustness_tests =
  [
    test "every confirmed fail-stop is detected, dated and switched" (fun () ->
        let s = Lazy.force recovery_summary in
        List.iter
          (fun (o : Robustness.outcome) ->
            match o.Robustness.recovery with
            | None -> Alcotest.fail "recovery outcome missing"
            | Some r ->
                if o.Robustness.replanned then begin
                  check_true "detected" (r.Robustness.detection <> None);
                  check_true "switched" (r.Robustness.switch_time <> None);
                  check_true "fewer stale reads with recovery"
                    (r.Robustness.stale_with <= r.Robustness.stale_without)
                end
                else begin
                  check_true "timing faults confirm nothing" (r.Robustness.detection = None);
                  check_true "and switch nothing" (r.Robustness.switch_time = None)
                end)
          s.Robustness.outcomes);
    test "retransmission shows up in the loss scenario's ledger" (fun () ->
        let s = Lazy.force recovery_summary in
        let loss =
          List.find
            (fun (o : Robustness.outcome) -> o.Robustness.scenario.Scenario.name = "loss")
            s.Robustness.outcomes
        in
        match loss.Robustness.recovery with
        | None -> Alcotest.fail "recovery outcome missing"
        | Some r ->
            check_true "retries spent" (r.Robustness.retransmissions > 0);
            check_true "drops recovered" (r.Robustness.recovered_transfers > 0);
            check_true "fewer stale reads"
              (r.Robustness.stale_with < r.Robustness.stale_without));
    test "switching beats freezing on some fail-stop (the acceptance bar)" (fun () ->
        let s = Lazy.force recovery_summary in
        check_true "a switched scenario improves the post-switch cost"
          (List.exists
             (fun (o : Robustness.outcome) ->
               match o.Robustness.recovery with
               | Some { Robustness.phases = Some p; _ } ->
                   p.Robustness.degraded_phase < p.Robustness.frozen_phase
               | _ -> false)
             s.Robustness.outcomes));
    test "phase costs compose back into the whole-horizon cost" (fun () ->
        let s = Lazy.force recovery_summary in
        List.iter
          (fun (o : Robustness.outcome) ->
            match o.Robustness.recovery with
            | Some
                {
                  Robustness.phases = Some p;
                  recovered_cost = Some total;
                  _;
                } ->
                check_float ~eps:1e-6 "nominal + transient + degraded = whole"
                  total
                  (p.Robustness.nominal_phase +. p.Robustness.transient_phase
                  +. p.Robustness.degraded_phase)
            | _ -> ())
          s.Robustness.outcomes);
    test "the evaluation reproduces bit-for-bit with recovery on" (fun () ->
        let s1 = Lazy.force recovery_summary in
        let architecture = dc_arch () in
        let scenarios =
          Scenario.single_processor_failures ~at:0.2 ~seed:42 architecture
          @ [
              Scenario.make ~name:"loss" ~seed:44
                [ Scenario.Message_loss { medium = None; prob = 0.2 } ];
            ]
        in
        let s2 =
          Robustness.evaluate ~iterations:40
            ~recovery:(Recovery.make ~period:0.05 ())
            ~design:(dc_design ()) ~architecture ~durations:(dc_durations ()) ~scenarios ()
        in
        List.iter2
          (fun (a : Robustness.outcome) (b : Robustness.outcome) ->
            match (a.Robustness.recovery, b.Robustness.recovery) with
            | Some ra, Some rb ->
                check_int "retransmissions" ra.Robustness.retransmissions
                  rb.Robustness.retransmissions;
                check_int "stale with" ra.Robustness.stale_with rb.Robustness.stale_with;
                check_true "same switch instant"
                  (ra.Robustness.switch_time = rb.Robustness.switch_time);
                check_true "same costs"
                  (ra.Robustness.recovered_cost = rb.Robustness.recovered_cost
                  && ra.Robustness.frozen_cost = rb.Robustness.frozen_cost)
            | _ -> Alcotest.fail "recovery outcome missing")
          s1.Robustness.outcomes s2.Robustness.outcomes);
    test "the markdown report renders the online-recovery table" (fun () ->
        let s = Lazy.force recovery_summary in
        let md = Fault.Fault_report.markdown_section s in
        check_true "section present" (contains md "### Online recovery");
        check_true "scenario rows" (contains md "failstop_P0");
        check_true "cost column" (contains md "post-switch cost"));
  ]

(* ------------------------------------------------------------------ *)

module Standby = Exec.Standby

(* the fork/join fixture again: every single-operator failover is
   feasible there, so P0 has a standby plan to run concurrently *)
let standby_fj =
  lazy
    (let alg, arch, d, nominal, exe = fj () in
     let table =
       Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
     in
     match Degrade.standby_plan_for table ~nominal ~operator:"P0" with
     | Some plan -> (arch, d, exe, plan)
     | None -> failwith "expected a feasible standby plan for P0")

let standby_config ?(injection = Injection.none) ?(iterations = 12) d =
  {
    Machine.default_config with
    law = TL.Wcet;
    iterations;
    durations = Some d;
    injection;
    recovery = Recovery.make ~period:0.5 ();
  }

let standby_tests =
  [
    test "zero faults: every vote is primary and nothing takes over" (fun () ->
        let _, d, exe, plan = Lazy.force standby_fj in
        let config = standby_config ~iterations:10 d in
        let tr = Standby.run ~config ~protects:"P0" ~standby:plan.Degrade.executive exe in
        let p, s, h = Standby.tally tr in
        check_int "all primary" 10 p;
        check_int "no standby votes" 0 s;
        check_int "no held votes" 0 h;
        check_true "no takeover" (tr.Standby.takeover = None);
        let plain = Machine.run ~config exe in
        List.iter
          (fun (op, voted) ->
            check_true "voted instants equal the plain executive's"
              (compare voted (Machine.instants plain op) = 0))
          (Standby.actuated_instants tr));
    test "a fail-stop takes over with zero blackout and pins on confirmation" (fun () ->
        let arch, d, exe, plan = Lazy.force standby_fj in
        let inj =
          Scenario.injection
            (Scenario.make ~name:"kill_P0" ~seed:9
               [ Scenario.Processor_failstop { operator = "P0"; at = 0.9 } ])
            ~architecture:arch
        in
        let config = standby_config ~injection:inj d in
        let tr = Standby.run ~config ~protects:"P0" ~standby:plan.Degrade.executive exe in
        let k =
          match tr.Standby.takeover with
          | None -> Alcotest.fail "expected a takeover"
          | Some (k, t) ->
              (* the release spanning the 0.9 failure already votes
                 standby: no blackout period between the streams *)
              check_true "takeover at the failing release" (k <= 2);
              check_true "actuation instant dated" (Float.is_finite t);
              k
        in
        let votes = Standby.votes tr in
        Array.iteri
          (fun i v ->
            if i < k then check_true "primary before the failure" (v = Standby.Primary)
            else check_true "standby from the takeover on" (v = Standby.Standby))
          votes;
        check_int "one decision per iteration" config.Machine.iterations
          (Array.length tr.Standby.decisions);
        check_true "the voter's pin is dated on heartbeat evidence"
          (List.exists
             (function
               | Recovery.Voter_switched { operator = "P0"; _ } -> true | _ -> false)
             tr.Standby.events);
        check_true "confirmation precedes it in the same timeline"
          (List.exists
             (function
               | Recovery.Failstop_confirmed { operator = "P0"; _ } -> true
               | _ -> false)
             tr.Standby.events);
        check_true "events chronological"
          (List.sort Recovery.compare_event tr.Standby.events = tr.Standby.events);
        (* the whole construction reproduces bit-for-bit (structural
           compare: Held decisions date their instant nan) *)
        let again =
          Standby.run ~config ~protects:"P0" ~standby:plan.Degrade.executive exe
        in
        check_true "decisions reproduce" (compare tr.Standby.decisions again.Standby.decisions = 0);
        check_true "events reproduce" (compare tr.Standby.events again.Standby.events = 0));
    test "protects must name an operator of the primary architecture" (fun () ->
        let _, d, exe, plan = Lazy.force standby_fj in
        check_raises_invalid "unknown operator" (fun () ->
            ignore
              (Standby.run ~config:(standby_config d) ~protects:"P9"
                 ~standby:plan.Degrade.executive exe)));
    qtest "zero faults: the voted stream is the plain executive's, bit for bit" ~count:30
      QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 12))
      (fun (seed, iterations) ->
        let _, d, exe, plan = Lazy.force standby_fj in
        let config =
          {
            Machine.default_config with
            iterations;
            seed;
            durations = Some d;
            recovery = Recovery.make ~period:0.5 ();
          }
        in
        let tr = Standby.run ~config ~protects:"P0" ~standby:plan.Degrade.executive exe in
        let plain = Machine.run ~config exe in
        let p, s, h = Standby.tally tr in
        p = iterations && s = 0 && h = 0
        && tr.Standby.takeover = None
        && List.for_all
             (fun (op, voted) -> compare voted (Machine.instants plain op) = 0)
             (Standby.actuated_instants tr));
  ]

let standby_summary =
  lazy
    (let architecture = dc_arch () in
     let scenarios =
       [
         Scenario.make ~name:"failstop_P0" ~seed:42
           [ Scenario.Processor_failstop { operator = "P0"; at = 0.2 } ];
       ]
     in
     Robustness.evaluate ~iterations:40 ~standby:true
       ~recovery:(Recovery.make ~period:0.05 ())
       ~design:(dc_design ()) ~architecture ~durations:(dc_durations ()) ~scenarios ())

let standby_robustness_tests =
  [
    test "the three-way comparison favours the hot standby" (fun () ->
        let s = Lazy.force standby_summary in
        let o = List.hd s.Robustness.outcomes in
        match o.Robustness.recovery with
        | Some { Robustness.standby = Some sb; _ } ->
            check_int "every period voted" 40
              (sb.Robustness.vote_primary + sb.Robustness.vote_standby
             + sb.Robustness.vote_held);
            check_true "takeover happened" (sb.Robustness.takeover <> None);
            (match
               ( sb.Robustness.standby_post_cost,
                 sb.Robustness.switch_post_cost,
                 sb.Robustness.frozen_post_cost )
             with
            | Some st, Some sw, Some fr ->
                check_true "hot standby strictly below blackout-then-switch" (st < sw);
                (* freezing can win on a short window (the held u happens
                   to park the plant near the reference); the acceptance
                   bar is only standby vs switch *)
                check_true "frozen cost finite" (Float.is_finite fr)
            | _ -> Alcotest.fail "expected all three post-failure costs");
            check_int "full vote log kept" 40 (List.length sb.Robustness.decisions)
        | _ -> Alcotest.fail "expected a standby outcome");
    test "the markdown report renders the standby table and vote log" (fun () ->
        let s = Lazy.force standby_summary in
        let md = Fault.Fault_report.markdown_section s in
        check_true "section present" (contains md "### Hot standby");
        check_true "vote log present" (contains md "Vote log — failstop_P0");
        check_true "switch evidence listed" (contains md "evidence:");
        check_true "three-way cost column"
          (contains md "post-failure cost (standby / switch / frozen)"));
  ]

(* ------------------------------------------------------------------ *)

let slack_of_policy p (c : Sched.comm_slot) =
  Recovery.worst_case_retry_time p ~transfer_duration:c.Sched.cm_duration

let slack_tests =
  [
    test "insert_slack reserves the retry window on every transfer" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let p = Recovery.make ~heartbeat_timeout:0. ~period:0.1 () in
        let slacked = Sched.insert_slack ~slack_of:(slack_of_policy p) sched in
        List.iter
          (fun (c : Sched.comm_slot) ->
            check_true "window at least the worst retry time"
              (Sched.retry_slack c +. 1e-9 >= slack_of_policy p c);
            check_true "reads never precede completion"
              (Sched.read_offset c +. 1e-9 >= c.Sched.cm_start +. c.Sched.cm_duration))
          slacked.Sched.comm;
        check_true "starts only move later" (slacked.Sched.makespan >= sched.Sched.makespan);
        check_true "still fits the period" (Sched.fits_period slacked);
        check_false "the retimed schedule revalidates"
          (Verify.Diag.has_errors (Verify.Sched_rules.check slacked)));
    test "SCHED012 rejects a read planned before the transfer completes" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let early =
          List.map
            (fun (c : Sched.comm_slot) -> { c with Sched.cm_read = c.Sched.cm_start })
            sched.Sched.comm
        in
        let forged = { sched with Sched.comm = early } in
        let diags = Verify.Sched_rules.check forged in
        check_true "SCHED012 raised" (has "SCHED012" diags);
        check_true "as an error" (Verify.Diag.has_errors diags);
        check_raises_invalid "make refuses the forged fixture" (fun () ->
            ignore
              (Sched.make ~algorithm:sched.Sched.algorithm
                 ~architecture:sched.Sched.architecture ~comp:sched.Sched.comp
                 ~comm:early)));
    test "the static-table executor samples at the slacked read offsets" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let p = Recovery.make ~heartbeat_timeout:0. ~period:0.1 () in
        let slacked = Sched.insert_slack ~slack_of:(slack_of_policy p) sched in
        let exe = Aaa.Codegen.generate slacked in
        let inj = Injection.make ~transfer_lost:always_lost () in
        let tr =
          Async.run
            ~config:{ Machine.default_config with iterations = 20; injection = inj;
                      Machine.recovery = p }
            exe
        in
        check_int "every drop recovered" 40 tr.Async.recovered_transfers;
        (* the reserved window absorbs the retry: unlike the unslacked
           schedule, the planned reads now land after the retried
           payload, so freshness holds *)
        check_int "no freshness violations" 0 tr.Async.violations);
    test "REC005 fires on the unslacked schedule and insert_slack silences it" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        let p = Recovery.make ~heartbeat_timeout:0. ~period:0.1 () in
        let before = Verify.Recovery_rules.check p sched in
        check_true "REC005 before" (has "REC005" before);
        check_false "a missing declaration is only a warning" (has "REC006" before);
        let slacked = Sched.insert_slack ~slack_of:(slack_of_policy p) sched in
        let after = Verify.Recovery_rules.check p slacked in
        check_false "REC005 silenced" (has "REC005" after);
        check_false "no REC006 either" (has "REC006" after));
    test "REC006 rejects a declared-but-insufficient window (forged fixture)" (fun () ->
        let _, _, _, sched, _ = dist_chain () in
        (* declare a 0.1 ms window, then verify against a policy whose
           worst-case retry time dwarfs it *)
        let tiny = Sched.insert_slack ~slack_of:(fun _ -> 1e-4) sched in
        let greedy = Recovery.make ~max_retries:5 ~backoff_base:0.01 ~period:0.1 () in
        let diags = Verify.Recovery_rules.check greedy tiny in
        check_true "REC006 raised" (has "REC006" diags);
        check_true "as an error" (Verify.Diag.has_errors diags);
        check_false "not the undeclared warning" (has "REC005" diags));
    test "run_all ~retry_slack audits the slacked deployment" (fun () ->
        let design = dc_design () in
        (* the two-processor deployment: transfers exist, so the
           default policy's retries overrun the planned reads *)
        let architecture = dc_arch () and durations = dc_durations () in
        let p = Recovery.make ~period:0.05 () in
        let plain = Verify.run_all ~architecture ~durations ~recovery:p design in
        check_true "REC005 on the unslacked deployment" (has "REC005" plain);
        let slacked =
          Verify.run_all ~architecture ~durations ~recovery:p ~retry_slack:true design
        in
        check_false "retry_slack closes the gap" (has "REC005" slacked);
        check_false "and declares enough" (has "REC006" slacked);
        check_false "no errors introduced" (Verify.Diag.has_errors slacked));
  ]

let suites =
  [
    ("recovery.policy", policy_tests);
    ("recovery.machine", machine_tests);
    ("recovery.async", async_tests);
    ("recovery.clip", clip_tests);
    ("recovery.verify", verify_tests);
    ("recovery.robustness", robustness_tests);
    ("recovery.standby", standby_tests);
    ("recovery.standby_robustness", standby_robustness_tests);
    ("recovery.slack", slack_tests);
  ]
