(* Cross-cutting property-based tests: each property exercises a whole
   pipeline (adequation → codegen → machine, schedule → graph of
   delays → co-simulation, …) over randomized inputs. *)

open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation

(* random layered sensor→computes→actuator DAG with random WCETs *)
let random_workload rng ~layers ~width =
  let alg = Alg.create ~name:"rand" ~period:10. in
  let prev = ref [] in
  for layer = 0 to layers - 1 do
    let ops =
      List.init width (fun i ->
          let kind =
            if layer = 0 then Alg.Sensor
            else if layer = layers - 1 then Alg.Actuator
            else Alg.Compute
          in
          let inputs = if layer = 0 then [||] else [| 1 |] in
          let outputs = if layer = layers - 1 then [||] else [| 1 |] in
          Alg.add_op alg ~name:(Printf.sprintf "op_%d_%d" layer i) ~kind ~inputs ~outputs ())
    in
    (match !prev with
    | [] -> ()
    | sources ->
        List.iter
          (fun op ->
            let src = List.nth sources (Numerics.Rng.int rng (List.length sources)) in
            Alg.depend alg ~src:(src, 0) ~dst:(op, 0))
          ops);
    prev := ops
  done;
  alg

let random_durations rng alg procs =
  let d = Dur.create () in
  List.iter
    (fun op ->
      Dur.set_everywhere d ~op:(Alg.op_name alg op) ~operators:procs
        (0.001 +. Numerics.Rng.float rng 0.02))
    (Alg.ops alg);
  d

(* architectures to draw from: bus, mesh, gateway *)
let random_architecture rng =
  match Numerics.Rng.int rng 3 with
  | 0 -> Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1"; "P2" ]
  | 1 -> Arch.fully_connected ~latency:0.0002 ~time_per_word:0.0005 [ "P0"; "P1"; "P2" ]
  | _ ->
      let arch = Arch.create ~name:"gateway" in
      let p0 = Arch.add_operator arch ~name:"P0" in
      let p1 = Arch.add_operator arch ~name:"P1" in
      let p2 = Arch.add_operator arch ~name:"P2" in
      let _ =
        Arch.add_medium arch ~name:"busA" ~kind:Arch.Bus ~latency:0.0005
          ~time_per_word:0.0005 [ p0; p1 ]
      in
      let _ =
        Arch.add_medium arch ~name:"busB" ~kind:Arch.Bus ~latency:0.0005
          ~time_per_word:0.0005 [ p1; p2 ]
      in
      arch

let procs_of arch = List.map (Arch.operator_name arch) (Arch.operators arch)

let random_schedule seed =
  let rng = Numerics.Rng.create seed in
  let layers = 2 + Numerics.Rng.int rng 3 in
  let width = 1 + Numerics.Rng.int rng 3 in
  let alg = random_workload rng ~layers ~width in
  let arch = random_architecture rng in
  let d = random_durations rng alg (procs_of arch) in
  let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
  (alg, sched)

let pipeline_props =
  [
    qtest "machine under WCET law replays every static completion" ~count:40
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let alg, sched = random_schedule seed in
        let exe = Aaa.Codegen.generate sched in
        let trace =
          Exec.Machine.run
            ~config:
              { Exec.Machine.default_config with law = Exec.Timing_law.Wcet; iterations = 3 }
            exe
        in
        List.for_all
          (fun op ->
            let slot = Sched.slot_of sched op in
            let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
            Array.to_list (Exec.Machine.instants trace op)
            |> List.mapi (fun k t -> (k, t))
            |> List.for_all (fun (k, t) ->
                   Float.abs (t -. ((float_of_int k *. 10.) +. static)) < 1e-9))
          (Alg.ops alg));
    qtest "machine under jitter stays order conformant and deadlock-free" ~count:40
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let _, sched = random_schedule seed in
        let exe = Aaa.Codegen.generate sched in
        let trace =
          Exec.Machine.run
            ~config:
              {
                Exec.Machine.default_config with
                iterations = 5;
                comm_jitter_frac = 0.5;
                seed;
              }
            exe
        in
        Exec.Machine.order_conformant trace);
    qtest "time-triggered baseline is always fresh under the WCET contract" ~count:40
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let _, sched = random_schedule seed in
        let exe = Aaa.Codegen.generate sched in
        let trace =
          Exec.Async.run
            ~config:{ Exec.Machine.default_config with iterations = 5; seed }
            exe
        in
        trace.Exec.Async.violations = 0);
    qtest "graph of delays reproduces every completion instant" ~count:25
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        (* build a plain diagram with one event-activated latch per
           operation, activate them through the generated graph of
           delays, and check the first-period instants *)
        let alg, sched = random_schedule seed in
        let g = Dataflow.Graph.create () in
        let latches =
          List.map
            (fun op ->
              (op, Dataflow.Graph.add g (Dataflow.Eventlib.event_latch_time ())))
            (Alg.ops alg)
        in
        let dg = Translator.Delay_graph.build ~graph:g ~schedule:sched () in
        List.iter
          (fun (op, latch) ->
            let tap = Translator.Delay_graph.completion dg op in
            Dataflow.Graph.connect_event g ~src:tap ~dst:(latch, 0))
          latches;
        let e = Sim.Engine.create g in
        Sim.Engine.run ~t_end:9.9 e;
        List.for_all
          (fun (op, latch) ->
            let slot = Sched.slot_of sched op in
            let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
            match Sim.Engine.activations e ~block:latch with
            | t :: _ -> Float.abs (t -. static) < 1e-9
            | [] -> false)
          latches);
    qtest "architecture routes are simple and reach the destination" ~count:60
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let rng = Numerics.Rng.create seed in
        let arch = random_architecture rng in
        let ops = Arch.operators arch in
        let p0 = List.nth ops 0 and p2 = List.nth ops (List.length ops - 1) in
        let routes = Arch.routes arch p0 p2 in
        routes <> []
        && List.for_all
             (fun route ->
               route <> []
               && snd (List.nth route (List.length route - 1)) = p2
               &&
               let stops = List.map snd route in
               List.length (List.sort_uniq compare stops) = List.length stops)
             routes);
    qtest "SDX round-trips preserve the adequation result" ~count:25
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let rng = Numerics.Rng.create seed in
        let procs = [ "P0"; "P1"; "P2" ] in
        let alg, d =
          Aaa.Workloads.layered ~rng
            ~layers:(2 + Numerics.Rng.int rng 3)
            ~width:(1 + Numerics.Rng.int rng 3)
            ~operators:procs ()
        in
        let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 procs in
        let app = { Aaa.Sdx.algorithm = alg; architecture = arch; durations = d; pins = [] } in
        let app2 = Aaa.Sdx.parse (Aaa.Sdx.print app) in
        let makespan app =
          (Adq.run ~algorithm:app.Aaa.Sdx.algorithm ~architecture:app.Aaa.Sdx.architecture
             ~durations:app.Aaa.Sdx.durations ())
            .Sched.makespan
        in
        makespan app = makespan app2);
    qtest "engine re-runs are bit-identical after reset" ~count:15
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let _, sched = random_schedule seed in
        let g = Dataflow.Graph.create () in
        let dg = Translator.Delay_graph.build ~graph:g ~schedule:sched () in
        ignore dg;
        let e = Sim.Engine.create g in
        Sim.Engine.run ~t_end:20. e;
        let first = Sim.Engine.event_log e in
        Sim.Engine.reset e;
        Sim.Engine.run ~t_end:20. e;
        Sim.Engine.event_log e = first);
  ]

(* random feed-forward block networks: sources feeding a DAG of
   processing blocks, every stateful block clocked *)
let random_diagram seed =
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let module E = Dataflow.Eventlib in
  let rng = Numerics.Rng.create seed in
  let g = G.create () in
  let clock = G.add g (E.clock ~period:0.05 ()) in
  let source () =
    match Numerics.Rng.int rng 3 with
    | 0 -> G.add g (C.constant [| Numerics.Rng.uniform rng (-2.) 2. |])
    | 1 -> G.add g (C.sine_source ~freq_hz:(Numerics.Rng.uniform rng 0.2 3.) ())
    | _ ->
        G.add g
          (C.step_source
             ~at:(Numerics.Rng.float rng 0.5)
             ~after:(Numerics.Rng.uniform rng (-1.) 1.)
             ())
  in
  let sources = List.init (1 + Numerics.Rng.int rng 3) (fun _ -> source ()) in
  let outputs = ref sources in
  let pick () = Numerics.Rng.choice rng (Array.of_list !outputs) in
  let n_blocks = 3 + Numerics.Rng.int rng 8 in
  for _ = 1 to n_blocks do
    let upstream = pick () in
    let id =
      match Numerics.Rng.int rng 7 with
      | 0 -> G.add g (C.gain (Numerics.Rng.uniform rng (-3.) 3.))
      | 1 -> G.add g (C.saturation ~lo:(-1.) ~hi:1. ())
      | 2 -> G.add g (C.dead_zone ~width:(Numerics.Rng.float rng 0.5) ())
      | 3 -> G.add g (C.quantizer ~step:(0.01 +. Numerics.Rng.float rng 0.5) ())
      | 4 ->
          let b = G.add g (C.sample_hold 1) in
          G.connect_event g ~src:(clock, 0) ~dst:(b, 0);
          b
      | 5 ->
          let b = G.add g (C.biquad ~b:[| 0.3 |] ~a:[| 1.; -0.7 |] ()) in
          G.connect_event g ~src:(clock, 0) ~dst:(b, 0);
          b
      | _ ->
          let b = G.add g (C.unit_delay [| 0. |]) in
          G.connect_event g ~src:(clock, 0) ~dst:(b, 0);
          b
    in
    G.connect_data g ~src:(upstream, 0) ~dst:(id, 0);
    outputs := id :: !outputs
  done;
  (* a two-input combinator over random upstream signals *)
  let sum = G.add g (C.sum [| 1.; -1. |]) in
  G.connect_data g ~src:(pick (), 0) ~dst:(sum, 0);
  G.connect_data g ~src:(pick (), 0) ~dst:(sum, 1);
  (g, sum)

let engine_stress_props =
  [
    qtest "random feed-forward diagrams simulate to finite values" ~count:60
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let g, probe_block = random_diagram seed in
        let e = Sim.Engine.create g in
        Sim.Engine.add_probe e ~name:"out" ~block:probe_block ~port:0;
        Sim.Engine.run ~t_end:1. e;
        let tr = Sim.Engine.probe e "out" in
        Sim.Trace.length tr > 0
        && Array.for_all
             (fun row -> Array.for_all Float.is_finite row)
             (Sim.Trace.values tr));
    qtest "random diagrams reset and re-run identically" ~count:20
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let g, probe_block = random_diagram seed in
        let e = Sim.Engine.create g in
        Sim.Engine.add_probe e ~name:"out" ~block:probe_block ~port:0;
        Sim.Engine.run ~t_end:0.7 e;
        let first = Sim.Trace.values (Sim.Engine.probe e "out") in
        Sim.Engine.reset e;
        Sim.Engine.run ~t_end:0.7 e;
        let second = Sim.Trace.values (Sim.Engine.probe e "out") in
        first = second);
  ]

let csv_tests =
  [
    test "trace CSV has header and one row per sample" (fun () ->
        let tr = Sim.Trace.create ~width:2 in
        Sim.Trace.record tr 0. [| 1.; 2. |];
        Sim.Trace.record tr 0.5 [| 3.; 4. |];
        let csv = Sim.Trace.to_csv ~labels:[ "a"; "b" ] tr in
        let lines = String.split_on_char '\n' (String.trim csv) in
        check_int "3 lines" 3 (List.length lines);
        check_true "header" (List.hd lines = "time,a,b");
        check_true "row" (contains csv "0.5,3,4"));
    test "label count checked" (fun () ->
        let tr = Sim.Trace.create ~width:2 in
        check_raises_invalid "labels" (fun () ->
            ignore (Sim.Trace.to_csv ~labels:[ "a" ] tr)));
  ]

let suites =
  [
    ("props.pipeline", pipeline_props);
    ("props.engine_stress", engine_stress_props);
    ("sim.csv", csv_tests);
  ]
