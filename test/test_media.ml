open Helpers
module Bus = Media.Bus
module Load = Media.Load
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Adq = Aaa.Adequation
module Machine = Exec.Machine
module Async = Exec.Async
module Scenario = Fault.Scenario

(* The distributed sense → law → act chain of test_exec/test_fault:
   sense and act on P0, law on P1, two transfers per iteration over the
   shared bus named "bus". *)
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
  (arch, sched, Aaa.Codegen.generate sched)

let chain_fixture = lazy (chain ())
let chain_exe () = let _, _, exe = Lazy.force chain_fixture in exe
let chain_arch () = let arch, _, _ = Lazy.force chain_fixture in arch
let chain_sched () = let _, sched, _ = Lazy.force chain_fixture in sched

(* ------------------------------------------------------------------ *)
(* bus: arbitration, retries, starvation, validation *)

let bus_tests =
  [
    test "an empty bus replays fixed durations bit-for-bit" (fun () ->
        let b = Bus.create (Bus.make ~name:"b" ~time_per_word:0.001 ()) in
        let c1 = Bus.transmit b ~ident:300 ~node:0 ~release:0.5 ~duration:0.2 in
        check_float "start at release" 0.5 c1.Bus.c_start;
        check_float "finish = start + duration" 0.7 c1.Bus.c_finish;
        check_int "one attempt" 1 c1.Bus.c_attempts;
        check_false "kept" c1.Bus.c_dropped;
        (* released while the bus is busy: queues behind, nothing else *)
        let c2 = Bus.transmit b ~ident:301 ~node:1 ~release:0.1 ~duration:0.05 in
        check_float "waits for the bus" 0.7 c2.Bus.c_start;
        check_float "then its exact duration" 0.75 c2.Bus.c_finish;
        check_int "log holds both" 2 (List.length (Bus.log b));
        check_float "busy time" 0.25 (Bus.busy_time b));
    test "lower identifiers win arbitration, higher ones yield" (fun () ->
        (* one high-priority background frame at t = 0 (0.1 s long) *)
        let hp = [ Load.periodic ~node:1000 ~ident:10 ~words:100 ~period:10. () ] in
        let b = Bus.create (Bus.make ~name:"b" ~time_per_word:0.001 ~load:hp ()) in
        let c = Bus.transmit b ~ident:300 ~node:0 ~release:0. ~duration:0.02 in
        check_float "foreground loses the first arbitration" 0.1 c.Bus.c_start;
        check_float "then transmits" 0.12 c.Bus.c_finish;
        (* same race against a low-priority frame: foreground first *)
        let lp = [ Load.periodic ~node:1000 ~ident:2000 ~words:100 ~period:10. () ] in
        let b2 = Bus.create (Bus.make ~name:"b" ~time_per_word:0.001 ~load:lp ()) in
        let c2 = Bus.transmit b2 ~ident:300 ~node:0 ~release:0. ~duration:0.02 in
        check_float "foreground wins" 0. c2.Bus.c_start;
        Bus.drain b2 ~until:1.;
        (match List.filter (fun c -> c.Bus.c_background) (Bus.log b2) with
        | [ bg ] -> check_float "loser follows" 0.02 bg.Bus.c_start
        | l -> Alcotest.failf "expected 1 background completion, got %d" (List.length l)));
    test "corrupted frames occupy the bus, retry, then drop at the limit" (fun () ->
        let always =
          { Bus.no_faults with
            Bus.f_corrupted = (fun ~ident:_ ~node:_ ~attempt:_ ~seq:_ -> true) } in
        let b =
          Bus.create
            (Bus.make ~name:"b" ~time_per_word:0.001 ~retry_limit:2 ~faults:always ()) in
        let c = Bus.transmit b ~ident:300 ~node:0 ~release:0. ~duration:0.1 in
        check_int "initial attempt + 2 retries" 3 c.Bus.c_attempts;
        check_true "payload dropped" c.Bus.c_dropped;
        check_float "last attempt starts after two failed ones" 0.2 c.Bus.c_start;
        check_float "three attempts of bus time" 0.3 (Bus.busy_time b);
        (* corrupting only the first attempt: the retry delivers *)
        let once =
          { Bus.no_faults with
            Bus.f_corrupted = (fun ~ident:_ ~node:_ ~attempt ~seq:_ -> attempt = 1) } in
        let b2 =
          Bus.create
            (Bus.make ~name:"b" ~time_per_word:0.001 ~retry_limit:2 ~faults:once ()) in
        let c2 = Bus.transmit b2 ~ident:300 ~node:0 ~release:0. ~duration:0.1 in
        check_int "one retry" 2 c2.Bus.c_attempts;
        check_false "recovered" c2.Bus.c_dropped;
        check_float "delivered on the second attempt" 0.2 c2.Bus.c_finish);
    test "a bus-off node's frames never occupy the bus" (fun () ->
        let off =
          { Bus.no_faults with
            Bus.f_node_off = (fun ~node ~time:_ -> node = 1000) } in
        let load = [ Load.periodic ~node:1000 ~ident:10 ~words:50 ~period:0.1 ~until_t:1. () ] in
        let b =
          Bus.create (Bus.make ~name:"b" ~time_per_word:0.001 ~load ~faults:off ()) in
        check_true "interface reported off" (Bus.node_off b ~node:1000 ~time:0.);
        let c = Bus.transmit b ~ident:300 ~node:0 ~release:0. ~duration:0.02 in
        check_float "no contention from the silenced node" 0. c.Bus.c_start;
        Bus.drain b ~until:1.;
        check_int "only the foreground frame in the log" 1 (List.length (Bus.log b));
        check_float "no background occupancy" 0.02 (Bus.busy_time b));
    test "a starved sender aborts after max_wait on an overloaded bus" (fun () ->
        (* utilization 2: the ident-1 stream outranks everything forever *)
        let load = [ Load.periodic ~node:1000 ~ident:1 ~words:100 ~period:0.05 () ] in
        let b =
          Bus.create (Bus.make ~name:"b" ~time_per_word:0.001 ~max_wait:0.3 ~load ()) in
        let c = Bus.transmit b ~ident:300 ~node:0 ~release:0. ~duration:0.01 in
        check_true "gave up" c.Bus.c_dropped;
        check_false "still a foreground frame" c.Bus.c_background;
        check_float "abort is instantaneous" c.Bus.c_start c.Bus.c_finish;
        check_true "waited at least max_wait"
          (c.Bus.c_finish -. c.Bus.c_release >= 0.3));
    test "constructor validation rejects malformed configs with [MEDIA004]" (fun () ->
        check_raises_invalid "zero word time" (fun () ->
            ignore (Bus.make ~name:"b" ~time_per_word:0. ()));
        check_raises_invalid "negative overhead" (fun () ->
            ignore (Bus.make ~name:"b" ~time_per_word:0.001 ~frame_overhead:(-1.) ()));
        check_raises_invalid "negative retry limit" (fun () ->
            ignore (Bus.make ~name:"b" ~time_per_word:0.001 ~retry_limit:(-1) ()));
        check_raises_invalid "zero max wait" (fun () ->
            ignore (Bus.make ~name:"b" ~time_per_word:0.001 ~max_wait:0. ()));
        check_raises_invalid "non-positive stream period" (fun () ->
            ignore (Load.periodic ~node:0 ~ident:1 ~words:1 ~period:0. ()));
        check_raises_invalid "jitter above 1" (fun () ->
            ignore (Load.periodic ~jitter_frac:1.5 ~node:0 ~ident:1 ~words:1 ~period:0.1 ()));
        check_raises_invalid "empty stream window" (fun () ->
            ignore
              (Load.periodic ~from_t:1. ~until_t:1. ~node:0 ~ident:1 ~words:1 ~period:0.1 ()));
        match Bus.make ~name:"b" ~time_per_word:0. () with
        | exception Invalid_argument msg ->
            check_true "rule prefix" (contains msg "[MEDIA004]")
        | _ -> Alcotest.fail "expected Invalid_argument");
    (let contended seed =
       let load =
         [
           Load.periodic ~jitter_frac:0.5 ~node:1000 ~ident:100 ~words:3 ~period:0.01 ();
           Load.periodic ~jitter_frac:0.25 ~node:1001 ~ident:50 ~words:2 ~period:0.013 ();
         ]
       in
       let b =
         Bus.create
           (Bus.make ~name:"b" ~time_per_word:0.001 ~frame_overhead:0.002 ~seed ~load ())
       in
       for k = 0 to 19 do
         ignore
           (Bus.transmit b ~ident:300 ~node:0 ~release:(0.005 *. float_of_int k)
              ~duration:0.004)
       done;
       Bus.drain b ~until:0.5;
       Bus.log b
     in
     qtest ~count:40 "same seed, same contention: completion traces are identical"
       QCheck2.Gen.(int_range 0 100_000)
       (fun seed -> contended seed = contended seed));
  ]

(* ------------------------------------------------------------------ *)
(* executive integration: empty-bus equivalence and contention *)

let machine_run ?(iterations = 20) ?(comm_jitter_frac = 0.) ?(seed = 9) bus_models =
  Machine.run
    ~config:
      { Machine.default_config with iterations; comm_jitter_frac; seed; bus_models }
    (chain_exe ())

let exec_tests =
  [
    test "an empty bus model leaves the executive bit-for-bit unchanged" (fun () ->
        let fixed = machine_run ~comm_jitter_frac:0.3 [] in
        let empty =
          machine_run ~comm_jitter_frac:0.3
            [ ("bus", Bus.make ~name:"bus" ~time_per_word:0.002 ()) ]
        in
        check_true "same operations" (fixed.Machine.ops = empty.Machine.ops);
        check_true "same transfers" (fixed.Machine.comms = empty.Machine.comms);
        check_true "same iteration ends"
          (fixed.Machine.iteration_end = empty.Machine.iteration_end);
        check_true "bus log present" (empty.Machine.bus_log <> []));
    qtest ~count:15 "empty-bus equivalence holds for any machine seed"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let fixed = machine_run ~iterations:10 ~comm_jitter_frac:0.4 ~seed [] in
        let empty =
          machine_run ~iterations:10 ~comm_jitter_frac:0.4 ~seed
            [ ("bus", Bus.make ~name:"bus" ~time_per_word:0.002 ()) ]
        in
        fixed.Machine.comms = empty.Machine.comms
        && fixed.Machine.iteration_end = empty.Machine.iteration_end);
    test "the async executive is equally unchanged by an empty bus" (fun () ->
        let run bus_models =
          Async.run
            ~config:
              {
                Machine.default_config with
                iterations = 20;
                comm_jitter_frac = 0.3;
                seed = 5;
                bus_models;
              }
            (chain_exe ())
        in
        let fixed = run [] in
        let empty = run [ ("bus", Bus.make ~name:"bus" ~time_per_word:0.002 ()) ] in
        check_int "violations" fixed.Async.violations empty.Async.violations;
        check_int "remote reads" fixed.Async.remote_consumptions
          empty.Async.remote_consumptions;
        check_int "overruns" fixed.Async.overruns empty.Async.overruns;
        check_true "latencies"
          (fixed.Async.actuation_latencies = empty.Async.actuation_latencies));
    test "a contended bus delays transfers but keeps the schedule order" (fun () ->
        let load = [ Load.periodic ~node:1000 ~ident:1 ~words:10 ~period:0.05 () ] in
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 ~seed:3 ~load () in
        let quiet = machine_run [] in
        let busy = machine_run [ ("bus", cfg) ] in
        let delayed =
          List.exists2
            (fun (q : Machine.comm_exec) (b : Machine.comm_exec) ->
              b.Machine.ce_finish > q.Machine.ce_finish +. 1e-12)
            quiet.Machine.comms busy.Machine.comms
        in
        check_true "some transfer lost an arbitration" delayed;
        check_true "order still conformant" (Machine.order_conformant busy);
        match List.assoc_opt "bus" busy.Machine.bus_log with
        | Some log ->
            check_true "background frames in the log"
              (List.exists (fun c -> c.Bus.c_background) log)
        | None -> Alcotest.fail "no bus log");
  ]

(* ------------------------------------------------------------------ *)
(* scenarios: bus-level fault events *)

let scenario_tests =
  [
    test "bus event validation rejects malformed events" (fun () ->
        check_raises_invalid "corruption prob > 1" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [ Scenario.Bus_corruption { medium = None; prob = 1.5 } ]));
        check_raises_invalid "babbling period <= 0" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [
                   Scenario.Babbling_idiot
                     { medium = "bus"; ident = 1; words = 1; period = 0.;
                       from_t = 0.; until_t = 1. };
                 ]));
        check_raises_invalid "negative bus-off time" (fun () ->
            ignore
              (Scenario.make ~name:"x" ~seed:0
                 [ Scenario.Bus_off { operator = "P0"; at = -1. } ])));
    test "a bus-only scenario compiles to the null structural injection" (fun () ->
        let s =
          Scenario.make ~name:"emi" ~seed:4
            [ Scenario.Bus_corruption { medium = None; prob = 0.5 } ]
        in
        let inj = Scenario.injection s ~architecture:(chain_arch ()) in
        check_true "physically none" (Exec.Injection.is_none inj));
    test "apply_bus folds corruption, babbling and bus-off into the model" (fun () ->
        let s =
          Scenario.make ~name:"storm" ~seed:8
            [
              Scenario.Bus_corruption { medium = Some "bus"; prob = 1. };
              Scenario.Babbling_idiot
                { medium = "bus"; ident = 1; words = 2; period = 0.01;
                  from_t = 0.; until_t = 0.5 };
              Scenario.Bus_off { operator = "P1"; at = 0.25 };
            ]
        in
        let base = Bus.make ~name:"bus" ~time_per_word:0.002 () in
        (match Scenario.apply_bus s ~architecture:(chain_arch ()) [ ("bus", base) ] with
        | [ ("bus", cfg) ] ->
            check_true "babbler appended on a synthetic node"
              (List.exists
                 (fun (st : Load.stream) -> st.Load.l_node >= 1000 && st.Load.l_ident = 1)
                 cfg.Bus.b_load);
            check_true "prob-1 corruption always fires"
              (cfg.Bus.b_faults.Bus.f_corrupted ~ident:300 ~node:0 ~attempt:1 ~seq:42);
            check_false "P1 on the bus before the fault"
              (cfg.Bus.b_faults.Bus.f_node_off ~node:1 ~time:0.2);
            check_true "P1 silenced from the fault instant"
              (cfg.Bus.b_faults.Bus.f_node_off ~node:1 ~time:0.3);
            check_false "P0 untouched"
              (cfg.Bus.b_faults.Bus.f_node_off ~node:0 ~time:0.3)
        | _ -> Alcotest.fail "expected the single model back");
        (* models the scenario does not touch pass through physically *)
        let s_off = Scenario.make ~name:"one" ~seed:1
            [ Scenario.Bus_off { operator = "P0"; at = 0. } ] in
        match Scenario.apply_bus s_off ~architecture:(chain_arch ()) [] with
        | [] -> ()
        | _ -> Alcotest.fail "no models in, no models out");
    test "apply_bus rejects names the architecture does not have" (fun () ->
        let arch = chain_arch () in
        let base = Bus.make ~name:"bus" ~time_per_word:0.002 () in
        check_raises_invalid "unknown medium" (fun () ->
            ignore
              (Scenario.apply_bus
                 (Scenario.make ~name:"x" ~seed:0
                    [
                      Scenario.Babbling_idiot
                        { medium = "can7"; ident = 1; words = 1; period = 0.01;
                          from_t = 0.; until_t = 1. };
                    ])
                 ~architecture:arch [ ("bus", base) ]));
        check_raises_invalid "unknown operator" (fun () ->
            ignore
              (Scenario.apply_bus
                 (Scenario.make ~name:"x" ~seed:0
                    [ Scenario.Bus_off { operator = "P9"; at = 0. } ])
                 ~architecture:arch [ ("bus", base) ])));
    test "scenario corruption decisions are a pure function of the seed" (fun () ->
        let mk () =
          let s =
            Scenario.make ~name:"emi" ~seed:21
              [ Scenario.Bus_corruption { medium = None; prob = 0.5 } ]
          in
          match
            Scenario.apply_bus s ~architecture:(chain_arch ())
              [ ("bus", Bus.make ~name:"bus" ~time_per_word:0.002 ()) ]
          with
          | [ (_, cfg) ] ->
              List.init 64 (fun i ->
                  cfg.Bus.b_faults.Bus.f_corrupted ~ident:300 ~node:(i mod 2)
                    ~attempt:(1 + (i mod 3)) ~seq:i)
          | _ -> Alcotest.fail "expected one model"
        in
        check_true "two compilations agree" (mk () = mk ());
        check_true "prob 0.5 actually flips" (List.exists Fun.id (mk ())
                                              && not (List.for_all Fun.id (mk ()))));
  ]

(* ------------------------------------------------------------------ *)
(* static rules: MEDIA001..MEDIA005 *)

let has_rule rule diags = List.exists (fun (d : Verify.Diag.t) -> d.Verify.Diag.rule = rule) diags

let rules_tests =
  [
    test "a deployable model passes without errors" (fun () ->
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 () in
        let diags = Verify.Media_rules.check ~schedule:(chain_sched ()) [ ("bus", cfg) ] in
        check_false "no errors" (Verify.Diag.has_errors diags));
    test "an overloaded bus is flagged MEDIA001" (fun () ->
        let load = [ Load.periodic ~node:1000 ~ident:1 ~words:100 ~period:0.01 () ] in
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 ~load () in
        let diags = Verify.Media_rules.check ~schedule:(chain_sched ()) [ ("bus", cfg) ] in
        check_true "MEDIA001" (has_rule "MEDIA001" diags);
        check_true "as an error" (Verify.Diag.has_errors diags));
    test "utilization above the bound warns MEDIA002" (fun () ->
        let load = [ Load.periodic ~node:1000 ~ident:1 ~words:20 ~period:0.1 () ] in
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 ~load () in
        let diags =
          Verify.Media_rules.check ~util_bound:0.1 ~schedule:(chain_sched ())
            [ ("bus", cfg) ]
        in
        check_true "MEDIA002" (has_rule "MEDIA002" diags);
        check_false "warning, not error" (Verify.Diag.has_errors diags));
    test "duplicate identifiers warn MEDIA003" (fun () ->
        let load =
          [
            Load.periodic ~node:1000 ~ident:500 ~words:1 ~period:1. ();
            Load.periodic ~node:1001 ~ident:500 ~words:1 ~period:1. ();
          ]
        in
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 ~load () in
        let diags = Verify.Media_rules.check ~schedule:(chain_sched ()) [ ("bus", cfg) ] in
        check_true "MEDIA003" (has_rule "MEDIA003" diags));
    test "unknown media and forged configs are MEDIA004 errors, not raises" (fun () ->
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 () in
        let diags = Verify.Media_rules.check ~schedule:(chain_sched ()) [ ("can7", cfg) ] in
        check_true "unknown medium" (has_rule "MEDIA004" diags);
        let forged = { cfg with Bus.b_time_per_word = 0. } in
        let diags2 =
          Verify.Media_rules.check ~schedule:(chain_sched ()) [ ("bus", forged) ]
        in
        check_true "forged config recovered to MEDIA004" (has_rule "MEDIA004" diags2);
        check_true "as errors" (Verify.Diag.has_errors diags2));
    test "a frame missing its consumer's read offset warns MEDIA005" (fun () ->
        (* 40-word frames at ident 1: every executive frame can be
           blocked/preempted by 0.08 s of traffic, far beyond the slack
           of a tightly packed 0.1 s schedule — yet utilization stays
           at 0.4, so the response-time analysis runs *)
        let load = [ Load.periodic ~node:1000 ~ident:1 ~words:40 ~period:0.2 () ] in
        let cfg = Bus.make ~name:"bus" ~time_per_word:0.002 ~load () in
        let diags = Verify.Media_rules.check ~schedule:(chain_sched ()) [ ("bus", cfg) ] in
        check_true "MEDIA005" (has_rule "MEDIA005" diags);
        check_false "still only warnings" (Verify.Diag.has_errors diags));
  ]

let suites =
  [
    ("media.bus", bus_tests);
    ("media.exec", exec_tests);
    ("media.scenario", scenario_tests);
    ("media.rules", rules_tests);
  ]
