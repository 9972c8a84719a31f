open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation
module TL = Exec.Timing_law
module Machine = Exec.Machine

let chain_schedule ?(distributed = false) () =
  let alg = Alg.create ~name:"chain" ~period:0.1 in
  let s = Alg.add_op alg ~name:"sense" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
  let c = Alg.add_op alg ~name:"law" ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] () in
  let a = Alg.add_op alg ~name:"act" ~kind:Alg.Actuator ~inputs:[| 1 |] () in
  Alg.depend alg ~src:(s, 0) ~dst:(c, 0);
  Alg.depend alg ~src:(c, 0) ~dst:(a, 0);
  let arch, d =
    if distributed then begin
      let arch = Arch.bus_topology ~time_per_word:0.002 [ "P0"; "P1" ] in
      let d = Dur.create () in
      Dur.set d ~op:"sense" ~operator:"P0" 0.01;
      Dur.set d ~op:"law" ~operator:"P1" 0.01;
      Dur.set d ~op:"act" ~operator:"P0" 0.01;
      (arch, d)
    end
    else begin
      let arch = Arch.single () in
      let d = Dur.create () in
      List.iter
        (fun op -> Dur.set d ~op:(Alg.op_name alg op) ~operator:"P0" 0.01)
        (Alg.ops alg);
      (arch, d)
    end
  in
  let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
  (alg, sched, Aaa.Codegen.generate sched, (s, c, a))

let timing_law_tests =
  [
    test "wcet law returns the worst case" (fun () ->
        let rng = Numerics.Rng.create 0 in
        check_float "wcet" 2. (TL.sample TL.Wcet rng ~bcet:1. ~wcet:2.));
    test "bcet law returns the best case" (fun () ->
        let rng = Numerics.Rng.create 0 in
        check_float "bcet" 1. (TL.sample TL.Bcet rng ~bcet:1. ~wcet:2.));
    test "degenerate interval returns wcet under any law" (fun () ->
        let rng = Numerics.Rng.create 0 in
        check_float "uniform" 3. (TL.sample TL.Uniform rng ~bcet:3. ~wcet:3.));
    test "invalid interval raises" (fun () ->
        let rng = Numerics.Rng.create 0 in
        check_raises_invalid "order" (fun () ->
            ignore (TL.sample TL.Uniform rng ~bcet:2. ~wcet:1.)));
    qtest "all laws stay within [bcet, wcet]" ~count:200
      QCheck2.Gen.(pair (int_range 0 100_000) (pair (float_range 0. 5.) (float_range 0. 5.)))
      (fun (seed, (a, b)) ->
        let bcet = Float.min a b and wcet = Float.max a b in
        let rng = Numerics.Rng.create seed in
        List.for_all
          (fun law ->
            let x = TL.sample law rng ~bcet ~wcet in
            x >= bcet -. 1e-12 && x <= wcet +. 1e-12)
          [
            TL.Wcet;
            TL.Bcet;
            TL.Uniform;
            TL.Triangular 0.3;
            TL.Gaussian { mean_frac = 0.5; sigma_frac = 0.2 };
          ]);
  ]

let machine_tests =
  [
    test "wcet law reproduces the static schedule exactly" (fun () ->
        let _, sched, exe, (s, c, a) = chain_schedule () in
        let config = { Machine.default_config with law = TL.Wcet; iterations = 5 } in
        let trace = Machine.run ~config exe in
        check_int "no overruns" 0 trace.Machine.overruns;
        (* finish instants must equal k·Ts + static completion *)
        List.iter
          (fun op ->
            let slot = Sched.slot_of sched op in
            let expected = slot.Sched.cs_start +. slot.Sched.cs_duration in
            Array.iteri
              (fun k t ->
                check_float ~eps:1e-9 "static replay" ((0.1 *. float_of_int k) +. expected) t)
              (Machine.instants trace op))
          [ s; c; a ]);
    test "order conformance holds under jitter" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let config =
          { Machine.default_config with law = TL.Uniform; comm_jitter_frac = 0.3; iterations = 50 }
        in
        let trace = Machine.run ~config exe in
        check_true "conformant" (Machine.order_conformant trace));
    test "sampling latencies bounded by static offsets" (fun () ->
        let _, sched, exe, _ = chain_schedule ~distributed:true () in
        let config = { Machine.default_config with law = TL.Uniform; iterations = 100 } in
        let trace = Machine.run ~config exe in
        List.iter
          (fun (op, lat) ->
            let slot = Sched.slot_of sched op in
            let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
            Array.iter
              (fun l ->
                check_true "<= static (wcet bound)" (l <= static +. 1e-9);
                check_true "positive" (l > 0.))
              lat)
          (Machine.sampling_latencies trace));
    test "actuation latency varies under jitter (the paper's point)" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let config = { Machine.default_config with law = TL.Uniform; iterations = 200 } in
        let trace = Machine.run ~config exe in
        match Machine.actuation_latencies trace with
        | [ (_, lat) ] ->
            let jitter = Numerics.Stats.max lat -. Numerics.Stats.min lat in
            check_true "nonzero jitter" (jitter > 1e-4)
        | _ -> Alcotest.fail "expected one actuator");
    test "deterministic for equal seeds" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let config = { Machine.default_config with iterations = 20; seed = 7 } in
        let t1 = Machine.run ~config exe in
        let t2 = Machine.run ~config exe in
        let ends1 = t1.Machine.iteration_end and ends2 = t2.Machine.iteration_end in
        check_vec ~eps:0. "same ends" ends1 ends2);
    test "conditioned operations skipped when condition differs" (fun () ->
        let alg = Alg.create ~name:"cond" ~period:0.1 in
        let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"m" (mode, 0);
        let b0 =
          Alg.add_op alg ~name:"b0" ~kind:Alg.Compute ~cond:{ Alg.var = "m"; value = 0 } ()
        in
        let b1 =
          Alg.add_op alg ~name:"b1" ~kind:Alg.Compute ~cond:{ Alg.var = "m"; value = 1 } ()
        in
        let arch = Arch.single () in
        let d = Dur.create () in
        List.iter
          (fun op -> Dur.set d ~op:(Alg.op_name alg op) ~operator:"P0" 0.01)
          (Alg.ops alg);
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let config =
          {
            Machine.default_config with
            iterations = 10;
            condition = (fun ~iteration ~var:_ -> iteration mod 2);
          }
        in
        let trace = Machine.run ~config exe in
        let skipped op =
          List.filter (fun oe -> oe.Machine.oe_op = op && oe.Machine.oe_skipped) trace.Machine.ops
        in
        check_int "b0 skipped on odd iterations" 5 (List.length (skipped b0));
        check_int "b1 skipped on even iterations" 5 (List.length (skipped b1)));
    test "branch-dependent duration creates actuation jitter" (fun () ->
        (* mode → cheap or expensive branch → actuator *)
        let alg = Alg.create ~name:"condjit" ~period:1. in
        let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"m" (mode, 0);
        let b0 =
          Alg.add_op alg ~name:"cheap" ~kind:Alg.Compute ~outputs:[| 1 |]
            ~cond:{ Alg.var = "m"; value = 0 } ()
        in
        let b1 =
          Alg.add_op alg ~name:"costly" ~kind:Alg.Compute ~outputs:[| 1 |]
            ~cond:{ Alg.var = "m"; value = 1 } ()
        in
        let act = Alg.add_op alg ~name:"act" ~kind:Alg.Actuator ~inputs:[| 1; 1 |] () in
        Alg.depend alg ~src:(b0, 0) ~dst:(act, 0);
        Alg.depend alg ~src:(b1, 0) ~dst:(act, 1);
        let arch = Arch.single () in
        let d = Dur.create () in
        Dur.set d ~op:"mode" ~operator:"P0" 0.01;
        Dur.set d ~op:"cheap" ~operator:"P0" 0.01;
        Dur.set d ~op:"costly" ~operator:"P0" 0.3;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let config =
          {
            Machine.default_config with
            iterations = 20;
            law = TL.Wcet;
            condition = (fun ~iteration ~var:_ -> iteration mod 2);
          }
        in
        let trace = Machine.run ~config exe in
        match Machine.actuation_latencies trace with
        | [ (_, lat) ] ->
            let jitter = Numerics.Stats.max lat -. Numerics.Stats.min lat in
            (* the 0.29 s branch difference must show up in La *)
            check_true "jitter about the branch delta" (jitter > 0.25)
        | _ -> Alcotest.fail "expected one actuator");
    test "overrun detected when makespan exceeds the period" (fun () ->
        let alg = Alg.create ~name:"over" ~period:0.015 in
        let s = Alg.add_op alg ~name:"s" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        let a = Alg.add_op alg ~name:"a" ~kind:Alg.Actuator ~inputs:[| 1 |] () in
        Alg.depend alg ~src:(s, 0) ~dst:(a, 0);
        let arch = Arch.single () in
        let d = Dur.create () in
        Dur.set d ~op:"s" ~operator:"P0" 0.01;
        Dur.set d ~op:"a" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_false "does not fit" (Sched.fits_period sched);
        let exe = Aaa.Codegen.generate sched in
        let config = { Machine.default_config with law = TL.Wcet; iterations = 10 } in
        let trace = Machine.run ~config exe in
        check_true "overruns counted" (trace.Machine.overruns > 0));
    test "corrupt executive deadlocks and is reported" (fun () ->
        (* swap the medium's transfer order so the receiver waits on a
           transfer whose data is posted after its own recv *)
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let broken =
          {
            exe with
            Aaa.Codegen.media_programs =
              List.map
                (fun (m, transfers) -> (m, List.rev transfers))
                exe.Aaa.Codegen.media_programs;
          }
        in
        let n_transfers =
          List.fold_left
            (fun acc (_, t) -> acc + List.length t)
            0 exe.Aaa.Codegen.media_programs
        in
        check_int "premise: two transfers on the bus" 2 n_transfers;
        match
          Machine.run ~config:{ Machine.default_config with iterations = 2 } broken
        with
        | exception Machine.Deadlock msg -> check_true "describes" (String.length msg > 0)
        | _ -> Alcotest.fail "expected Deadlock");
    test "iterations parameter honoured" (fun () ->
        let _, _, exe, (s, _, _) = chain_schedule () in
        let config = { Machine.default_config with iterations = 7 } in
        let trace = Machine.run ~config exe in
        check_int "7 sensor instants" 7 (Array.length (Machine.instants trace s)));
    test "non-positive iterations rejected" (fun () ->
        let _, _, exe, _ = chain_schedule () in
        check_raises_invalid "iterations" (fun () ->
            ignore (Machine.run ~config:{ Machine.default_config with iterations = 0 } exe)));
  ]

let async_tests =
  [
    test "time-triggered baseline is fresh under the WCET contract" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let trace =
          Exec.Async.run
            ~config:{ Exec.Machine.default_config with iterations = 100 }
            exe
        in
        check_int "no stale reads" 0 trace.Exec.Async.violations;
        check_true "remote reads were checked" (trace.Exec.Async.remote_consumptions > 0));
    test "overruns create stale reads in the baseline" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let trace =
          Exec.Async.run
            ~config:
              {
                Exec.Machine.default_config with
                iterations = 200;
                overrun_prob = 0.3;
                overrun_factor = 2.5;
              }
            exe
        in
        check_true "stale reads appear" (trace.Exec.Async.violations > 0));
    test "synchronised machine stays order-conformant under overruns" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let trace =
          Exec.Machine.run
            ~config:
              {
                Machine.default_config with
                iterations = 200;
                overrun_prob = 0.3;
                overrun_factor = 2.5;
              }
            exe
        in
        check_true "conformant" (Machine.order_conformant trace));
    test "machine overruns lengthen latencies beyond the static bound" (fun () ->
        let _, sched, exe, _ = chain_schedule ~distributed:true () in
        let trace =
          Exec.Machine.run
            ~config:
              {
                Machine.default_config with
                iterations = 300;
                law = TL.Wcet;
                overrun_prob = 0.5;
                overrun_factor = 2.0;
              }
            exe
        in
        match Machine.actuation_latencies trace with
        | [ (op, lat) ] ->
            let slot = Sched.slot_of sched op in
            let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
            check_true "sometimes exceeds the WCET plan"
              (Numerics.Stats.max lat > static +. 1e-6)
        | _ -> Alcotest.fail "expected one actuator");
    test "baseline latency equals the static plan at WCET without overruns" (fun () ->
        let _, sched, exe, (_, _, a) = chain_schedule () in
        let trace =
          Exec.Async.run
            ~config:{ Exec.Machine.default_config with iterations = 10; law = TL.Wcet }
            exe
        in
        match trace.Exec.Async.actuation_latencies with
        | [ (op, lat) ] ->
            check_true "same actuator" (op = a);
            let slot = Sched.slot_of sched op in
            let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
            Array.iter (fun l -> check_float ~eps:1e-9 "La = plan" static l) lat
        | _ -> Alcotest.fail "expected one actuator");
    test "a producer overrun makes the data miss its TT bus slot" (fun () ->
        (* sense on P0 feeds law on P1; blow up only the sensor's
           duration so the transfer's planned slot departs without
           this iteration's sample *)
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let always_overrun =
          {
            Exec.Machine.default_config with
            iterations = 20;
            law = TL.Wcet;
            overrun_prob = 1.0;
            overrun_factor = 3.0;
          }
        in
        let trace = Exec.Async.run ~config:always_overrun exe in
        (* every remote read is stale: 3x WCET pushes every producer
           past its bus slot *)
        check_int "all stale" trace.Exec.Async.remote_consumptions
          trace.Exec.Async.violations);
    test "TT bus slots serialize in the static order" (fun () ->
        (* two transfers share the bus; even with the second producer
           finishing first (Bcet law on a faster branch), freshness
           must hold: slots depart in plan order with fresh data *)
        let alg = Alg.create ~name:"two_msgs" ~period:1. in
        let s0 = Alg.add_op alg ~name:"s0" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        let s1 = Alg.add_op alg ~name:"s1" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        let c = Alg.add_op alg ~name:"c" ~kind:Alg.Compute ~inputs:[| 1; 1 |] ~outputs:[| 1 |] () in
        let a = Alg.add_op alg ~name:"a" ~kind:Alg.Actuator ~inputs:[| 1 |] () in
        Alg.depend alg ~src:(s0, 0) ~dst:(c, 0);
        Alg.depend alg ~src:(s1, 0) ~dst:(c, 1);
        Alg.depend alg ~src:(c, 0) ~dst:(a, 0);
        let arch = Arch.bus_topology ~latency:0.01 ~time_per_word:0.01 [ "P0"; "P1" ] in
        let d = Dur.create () in
        Dur.set d ~op:"s0" ~operator:"P0" 0.05;
        Dur.set d ~op:"s1" ~operator:"P0" 0.01;
        Dur.set d ~op:"c" ~operator:"P1" 0.02;
        Dur.set d ~op:"a" ~operator:"P1" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let trace =
          Exec.Async.run
            ~config:{ Exec.Machine.default_config with iterations = 30; law = TL.Uniform }
            exe
        in
        check_int "fresh despite reordering pressure" 0 trace.Exec.Async.violations);
    test "baseline rejects non-positive iterations" (fun () ->
        let _, _, exe, _ = chain_schedule () in
        check_raises_invalid "iterations" (fun () ->
            ignore
              (Exec.Async.run ~config:{ Exec.Machine.default_config with iterations = 0 } exe)));
    test "utilization sums busy time per operator" (fun () ->
        let _, sched, exe, _ = chain_schedule () in
        let trace =
          Machine.run ~config:{ Machine.default_config with law = TL.Wcet; iterations = 10 } exe
        in
        (* single processor, 3 ops x 0.01 s per 0.1 s period *)
        ignore sched;
        (match Exec.Machine.utilization trace with
        | [ (_, u) ] -> check_float ~eps:1e-9 "30%" 0.3 u
        | _ -> Alcotest.fail "expected one operator"));
    test "utilization excludes skipped conditioned operations" (fun () ->
        let alg = Alg.create ~name:"c" ~period:1. in
        let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"m" (mode, 0);
        let _ =
          Alg.add_op alg ~name:"branch" ~kind:Alg.Compute ~cond:{ Alg.var = "m"; value = 1 } ()
        in
        let arch = Arch.single () in
        let d = Dur.create () in
        Dur.set d ~op:"mode" ~operator:"P0" 0.1;
        Dur.set d ~op:"branch" ~operator:"P0" 0.4;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        (* condition never holds: only "mode" runs *)
        let trace =
          Machine.run
            ~config:{ Machine.default_config with law = TL.Wcet; iterations = 5 }
            exe
        in
        match Exec.Machine.utilization trace with
        | [ (_, u) ] -> check_float ~eps:1e-9 "10% only" 0.1 u
        | _ -> Alcotest.fail "expected one operator");
    test "durations can be characterised from measurements" (fun () ->
        let d =
          Dur.of_measurements ~margin:0.25
            [ ("f", "P0", [ 0.008; 0.010; 0.009 ]); ("g", "P0", [ 0.002 ]) ]
        in
        check_true "wcet = max * 1.25" (Dur.wcet d ~op:"f" ~operator:"P0" = Some 0.0125);
        check_true "bcet = min" (Dur.bcet d ~op:"f" ~operator:"P0" = Some 0.008);
        check_raises_invalid "empty" (fun () ->
            ignore (Dur.of_measurements [ ("h", "P0", []) ])));
    test "executed gantt renders operators, media and op names" (fun () ->
        let _, _, exe, _ = chain_schedule ~distributed:true () in
        let trace =
          Machine.run ~config:{ Machine.default_config with iterations = 4 } exe
        in
        let chart = Exec.Exec_gantt.render ~iteration:2 trace in
        check_true "operator row" (contains chart "P0");
        check_true "bus row" (contains chart "bus");
        check_true "op name" (contains chart "sense");
        check_true "window label" (contains chart "iteration 2");
        check_raises_invalid "range" (fun () ->
            ignore (Exec.Exec_gantt.render ~iteration:99 trace)));
    test "baseline draws every execution from the durations table" (fun () ->
        (* independent actuators on two processors: each starts at its
           planned offset, so La(k) − start is that execution's draw *)
        let alg = Alg.create ~name:"acts" ~period:0.1 in
        let names = [ "a0"; "a1"; "a2"; "a3" ] in
        List.iter (fun name -> ignore (Alg.add_op alg ~name ~kind:Alg.Actuator ())) names;
        let d = Dur.create () in
        List.iteri
          (fun i op ->
            let wcet = 0.004 *. float_of_int (i + 1) in
            Dur.set_everywhere d ~op ~operators:[ "P0"; "P1" ] wcet;
            List.iter
              (fun operator -> Dur.set_bcet d ~op ~operator (0.4 *. wcet))
              [ "P0"; "P1" ])
          names;
        let arch = Arch.bus_topology ~time_per_word:0.002 [ "P0"; "P1" ] in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let run law =
          Exec.Async.run
            ~config:{ Machine.default_config with iterations = 200; law; durations = Some d }
            exe
        in
        let draws law =
          List.concat_map
            (fun (op, lat) ->
              let slot = Sched.slot_of sched op in
              let wcet = slot.Sched.cs_duration in
              List.map (fun l -> (l -. slot.Sched.cs_start, wcet)) (Array.to_list lat))
            (run law).Exec.Async.actuation_latencies
        in
        let uniform = draws TL.Uniform in
        check_int "every execution observed" (4 * 200) (List.length uniform);
        List.iter
          (fun (x, wcet) ->
            check_true "within [table BCET, WCET]"
              (x >= (0.4 *. wcet) -. 1e-12 && x <= wcet +. 1e-12))
          uniform;
        check_true "below the 0.5·WCET fallback"
          (List.exists (fun (x, wcet) -> x < 0.5 *. wcet) uniform);
        List.iter
          (fun (x, wcet) -> check_float ~eps:1e-12 "Bcet law takes the table BCET" (0.4 *. wcet) x)
          (draws TL.Bcet));
  ]

let suites =
  [
    ("exec.timing_law", timing_law_tests);
    ("exec.machine", machine_tests);
    ("exec.async_baseline", async_tests);
  ]
