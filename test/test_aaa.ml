open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation

(* A small sensor → compute → actuator chain. *)
let chain_algorithm () =
  let alg = Alg.create ~name:"chain" ~period:0.1 in
  let s = Alg.add_op alg ~name:"sense" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
  let c = Alg.add_op alg ~name:"law" ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] () in
  let a = Alg.add_op alg ~name:"act" ~kind:Alg.Actuator ~inputs:[| 1 |] () in
  Alg.depend alg ~src:(s, 0) ~dst:(c, 0);
  Alg.depend alg ~src:(c, 0) ~dst:(a, 0);
  (alg, s, c, a)

let uniform_durations alg operators value =
  let d = Dur.create () in
  List.iter
    (fun op -> Dur.set_everywhere d ~op:(Alg.op_name alg op) ~operators value)
    (Alg.ops alg);
  d

(* ------------------------------------------------------------------ *)
(* Algorithm *)

let algorithm_tests =
  [
    test "create rejects non-positive period" (fun () ->
        check_raises_invalid "period" (fun () ->
            ignore (Alg.create ~name:"x" ~period:0.)));
    test "duplicate operation names rejected" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let _ = Alg.add_op alg ~name:"op" ~kind:Alg.Compute () in
        check_raises_invalid "dup" (fun () ->
            ignore (Alg.add_op alg ~name:"op" ~kind:Alg.Compute ())));
    test "depend checks widths and ports" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let a = Alg.add_op alg ~name:"a" ~kind:Alg.Compute ~outputs:[| 2 |] () in
        let b = Alg.add_op alg ~name:"b" ~kind:Alg.Compute ~inputs:[| 1 |] () in
        check_raises_invalid "width" (fun () -> Alg.depend alg ~src:(a, 0) ~dst:(b, 0));
        check_raises_invalid "port" (fun () -> Alg.depend alg ~src:(a, 1) ~dst:(b, 0)));
    test "input port wired once" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let a = Alg.add_op alg ~name:"a" ~kind:Alg.Compute ~outputs:[| 1 |] () in
        let b = Alg.add_op alg ~name:"b" ~kind:Alg.Compute ~outputs:[| 1 |] () in
        let c = Alg.add_op alg ~name:"c" ~kind:Alg.Compute ~inputs:[| 1 |] () in
        Alg.depend alg ~src:(a, 0) ~dst:(c, 0);
        check_raises_invalid "double" (fun () -> Alg.depend alg ~src:(b, 0) ~dst:(c, 0)));
    test "validate flags unwired inputs" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let _ = Alg.add_op alg ~name:"a" ~kind:Alg.Compute ~inputs:[| 1 |] () in
        check_raises_invalid "unwired" (fun () -> Alg.validate alg));
    test "validate detects cycles" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let a = Alg.add_op alg ~name:"a" ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] () in
        let b = Alg.add_op alg ~name:"b" ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] () in
        Alg.depend alg ~src:(a, 0) ~dst:(b, 0);
        Alg.depend alg ~src:(b, 0) ~dst:(a, 0);
        check_raises_invalid "cycle" (fun () -> Alg.validate alg));
    test "memory breaks cycles" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let m =
          Alg.add_op alg ~name:"state" ~kind:Alg.Memory ~inputs:[| 1 |] ~outputs:[| 1 |] ()
        in
        let c =
          Alg.add_op alg ~name:"update" ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] ()
        in
        Alg.depend alg ~src:(m, 0) ~dst:(c, 0);
        Alg.depend alg ~src:(c, 0) ~dst:(m, 0);
        Alg.validate alg);
    test "memory needs matching ports" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        check_raises_invalid "ports" (fun () ->
            ignore (Alg.add_op alg ~name:"m" ~kind:Alg.Memory ~inputs:[| 1 |] ())));
    test "topological order respects dependencies" (fun () ->
        let alg, s, c, a = chain_algorithm () in
        let order = Alg.topological_order alg in
        let pos x = Option.get (List.find_index (fun o -> o = x) order) in
        check_true "s < c" (pos s < pos c);
        check_true "c < a" (pos c < pos a));
    test "sensors and actuators listed" (fun () ->
        let alg, s, _, a = chain_algorithm () in
        check_true "sensor" (Alg.sensors alg = [ s ]);
        check_true "actuator" (Alg.actuators alg = [ a ]));
    test "condition source must exist" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let _ =
          Alg.add_op alg ~name:"c" ~kind:Alg.Compute
            ~cond:{ Alg.var = "mode"; value = 0 } ()
        in
        check_raises_invalid "no source" (fun () -> Alg.validate alg));
    test "condition source registration" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let m = Alg.add_op alg ~name:"mode" ~kind:Alg.Compute ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"mode" (m, 0);
        check_true "found" (Alg.condition_source alg ~var:"mode" = Some (m, 0));
        check_raises_invalid "dup" (fun () ->
            Alg.set_condition_source alg ~var:"mode" (m, 0)));
    test "condition source needs width 1" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let m = Alg.add_op alg ~name:"mode" ~kind:Alg.Compute ~outputs:[| 2 |] () in
        check_raises_invalid "width" (fun () ->
            Alg.set_condition_source alg ~var:"mode" (m, 0)));
    test "set_op_condition after creation" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let m = Alg.add_op alg ~name:"mode" ~kind:Alg.Compute ~outputs:[| 1 |] () in
        let c = Alg.add_op alg ~name:"c" ~kind:Alg.Compute () in
        Alg.set_condition_source alg ~var:"mode" (m, 0);
        Alg.set_op_condition alg c { Alg.var = "mode"; value = 1 };
        check_true "tagged" (Alg.op_cond alg c = Some { Alg.var = "mode"; value = 1 });
        check_raises_invalid "retag" (fun () ->
            Alg.set_op_condition alg c { Alg.var = "mode"; value = 0 }));
  ]

(* ------------------------------------------------------------------ *)
(* Architecture *)

let architecture_tests =
  [
    test "duplicate operator names rejected" (fun () ->
        let a = Arch.create ~name:"x" in
        let _ = Arch.add_operator a ~name:"P0" in
        check_raises_invalid "dup" (fun () -> ignore (Arch.add_operator a ~name:"P0")));
    test "point-to-point needs exactly two operators" (fun () ->
        let a = Arch.create ~name:"x" in
        let p = Arch.add_operator a ~name:"P0" in
        check_raises_invalid "arity" (fun () ->
            ignore (Arch.add_medium a ~name:"l" ~kind:Arch.Point_to_point ~time_per_word:1. [ p ])));
    test "comm_duration is latency + words x rate" (fun () ->
        let a = Arch.bus_topology ~latency:0.5 ~time_per_word:0.1 [ "P0"; "P1" ] in
        let m = Option.get (Arch.find_medium a "bus") in
        check_float ~eps:1e-12 "duration" 0.8 (Arch.comm_duration a m ~words:3));
    test "connecting finds shared media" (fun () ->
        let a = Arch.fully_connected ~time_per_word:1. [ "P0"; "P1"; "P2" ] in
        let p0 = Option.get (Arch.find_operator a "P0") in
        let p1 = Option.get (Arch.find_operator a "P1") in
        check_int "one direct link" 1 (List.length (Arch.connecting a p0 p1)));
    test "validate detects disconnected architecture" (fun () ->
        let a = Arch.create ~name:"x" in
        let _ = Arch.add_operator a ~name:"P0" in
        let _ = Arch.add_operator a ~name:"P1" in
        check_raises_invalid "disconnected" (fun () -> Arch.validate a));
    test "single operator architecture is valid" (fun () ->
        Arch.validate (Arch.single ()));
    test "bus topology connects all" (fun () ->
        let a = Arch.bus_topology ~time_per_word:1. [ "P0"; "P1"; "P2" ] in
        Arch.validate a;
        check_int "one medium" 1 (Arch.medium_count a);
        check_int "three operators" 3 (Arch.operator_count a));
    test "fully connected pair count" (fun () ->
        let a = Arch.fully_connected ~time_per_word:1. [ "A"; "B"; "C"; "D" ] in
        check_int "6 links" 6 (Arch.medium_count a));
  ]

(* ------------------------------------------------------------------ *)
(* Durations *)

let durations_tests =
  [
    test "wcet lookup and absence" (fun () ->
        let d = Dur.create () in
        Dur.set d ~op:"f" ~operator:"P0" 2.;
        check_true "present" (Dur.wcet d ~op:"f" ~operator:"P0" = Some 2.);
        check_true "absent" (Dur.wcet d ~op:"f" ~operator:"P1" = None);
        check_true "can_run" (Dur.can_run d ~op:"f" ~operator:"P0"));
    test "bcet defaults to wcet" (fun () ->
        let d = Dur.create () in
        Dur.set d ~op:"f" ~operator:"P0" 2.;
        check_true "bcet = wcet" (Dur.bcet d ~op:"f" ~operator:"P0" = Some 2.));
    test "bcet must not exceed wcet" (fun () ->
        let d = Dur.create () in
        Dur.set d ~op:"f" ~operator:"P0" 2.;
        check_raises_invalid "bcet" (fun () -> Dur.set_bcet d ~op:"f" ~operator:"P0" 3.);
        check_raises_invalid "no wcet" (fun () -> Dur.set_bcet d ~op:"g" ~operator:"P0" 1.));
    test "average over runnable operators" (fun () ->
        let d = Dur.create () in
        Dur.set d ~op:"f" ~operator:"P0" 2.;
        Dur.set d ~op:"f" ~operator:"P1" 4.;
        check_true "mean"
          (Dur.average_wcet d ~op:"f" ~operators:[ "P0"; "P1"; "P2" ] = Some 3.);
        check_true "none" (Dur.average_wcet d ~op:"g" ~operators:[ "P0" ] = None));
    test "negative wcet rejected" (fun () ->
        let d = Dur.create () in
        check_raises_invalid "neg" (fun () -> Dur.set d ~op:"f" ~operator:"P0" (-1.)));
    test "fold visits every entry with effective BCETs" (fun () ->
        let d = Dur.create () in
        Dur.set d ~op:"f" ~operator:"P0" 2.;
        Dur.set_bcet d ~op:"f" ~operator:"P0" 1.;
        Dur.set d ~op:"g" ~operator:"P1" 3.;
        let entries =
          Dur.fold d ~init:[] ~f:(fun ~op ~operator ~wcet ~bcet acc ->
              (op, operator, wcet, bcet) :: acc)
          |> List.sort compare
        in
        check_true "both entries"
          (entries = [ ("f", "P0", 2., 1.); ("g", "P1", 3., 3.) ]));
    test "scale multiplies WCET and BCET uniformly" (fun () ->
        let d = Dur.create () in
        Dur.set d ~op:"f" ~operator:"P0" 2.;
        Dur.set_bcet d ~op:"f" ~operator:"P0" 1.;
        let half = Dur.scale d 0.5 in
        check_true "wcet" (Dur.wcet half ~op:"f" ~operator:"P0" = Some 1.);
        check_true "bcet" (Dur.bcet half ~op:"f" ~operator:"P0" = Some 0.5);
        check_raises_invalid "factor" (fun () -> ignore (Dur.scale d 0.)));
  ]

(* ------------------------------------------------------------------ *)
(* Adequation + Schedule *)

let adequation_tests =
  [
    test "single processor serialises the chain" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_float ~eps:1e-12 "makespan = 3 wcet" 0.03 sched.Sched.makespan;
        check_true "fits" (Sched.fits_period sched);
        check_int "no comms" 0 (List.length sched.Sched.comm));
    test "sensor completion offsets exposed" (fun () ->
        let alg, s, _, a = chain_algorithm () in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_true "Ls = wcet" (Sched.sensor_completions sched = [ (s, 0.01) ]);
        check_true "La = makespan"
          (match Sched.actuator_completions sched with
          | [ (op, t) ] -> op = a && Float.abs (t -. 0.03) < 1e-12
          | _ -> false));
    test "parallel branches exploit two processors" (fun () ->
        (* two independent chains: 2 procs should halve the makespan *)
        let alg = Alg.create ~name:"par" ~period:1. in
        let mk i =
          let s =
            Alg.add_op alg ~name:(Printf.sprintf "s%d" i) ~kind:Alg.Sensor ~outputs:[| 1 |] ()
          in
          let c =
            Alg.add_op alg
              ~name:(Printf.sprintf "c%d" i)
              ~kind:Alg.Compute ~inputs:[| 1 |] ~outputs:[| 1 |] ()
          in
          let a =
            Alg.add_op alg ~name:(Printf.sprintf "a%d" i) ~kind:Alg.Actuator ~inputs:[| 1 |] ()
          in
          Alg.depend alg ~src:(s, 0) ~dst:(c, 0);
          Alg.depend alg ~src:(c, 0) ~dst:(a, 0)
        in
        mk 0;
        mk 1;
        let arch1 = Arch.single () in
        let arch2 = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d1 = uniform_durations alg [ "P0" ] 0.1 in
        let d2 = uniform_durations alg [ "P0"; "P1" ] 0.1 in
        let sched1 = Adq.run ~algorithm:alg ~architecture:arch1 ~durations:d1 () in
        let sched2 = Adq.run ~algorithm:alg ~architecture:arch2 ~durations:d2 () in
        check_float ~eps:1e-9 "serial" 0.6 sched1.Sched.makespan;
        check_true "parallel speedup" (sched2.Sched.makespan < 0.45));
    test "cross-processor dependency inserts a transfer" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d = Dur.create () in
        (* force law onto P1 by making it unavailable on P0 *)
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_int "two transfers" 2 (List.length sched.Sched.comm);
        Sched.pp Format.str_formatter sched;
        check_true "pp mentions bus" (contains (Format.flush_str_formatter ()) "bus"));
    test "pins are respected" (fun () ->
        let alg, s, _, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d = uniform_durations alg [ "P0"; "P1" ] 0.01 in
        let sched =
          Adq.run ~pins:[ ("sense", "P1") ] ~algorithm:alg ~architecture:arch ~durations:d ()
        in
        check_true "pinned"
          (Arch.operator_name arch (Sched.operator_of sched s) = "P1"));
    test "pin to an operator without WCET is infeasible" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P0" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        (match
           Adq.run ~pins:[ ("law", "P1") ] ~algorithm:alg ~architecture:arch ~durations:d ()
         with
        | exception Adq.Infeasible _ -> ()
        | _ -> Alcotest.fail "expected Infeasible"));
    test "operation with no WCET anywhere is infeasible" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.single () in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        (match Adq.run ~algorithm:alg ~architecture:arch ~durations:d () with
        | exception Adq.Infeasible _ -> ()
        | _ -> Alcotest.fail "expected Infeasible"));
    test "memory placed with its producer and wrap transfer added" (fun () ->
        let alg = Alg.create ~name:"mem" ~period:1. in
        let s = Alg.add_op alg ~name:"s" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        let m = Alg.add_op alg ~name:"m" ~kind:Alg.Memory ~inputs:[| 1 |] ~outputs:[| 1 |] () in
        let c = Alg.add_op alg ~name:"c" ~kind:Alg.Compute ~inputs:[| 1; 1 |] ~outputs:[| 1 |] () in
        let a = Alg.add_op alg ~name:"a" ~kind:Alg.Actuator ~inputs:[| 1 |] () in
        Alg.depend alg ~src:(s, 0) ~dst:(c, 0);
        Alg.depend alg ~src:(m, 0) ~dst:(c, 1);
        Alg.depend alg ~src:(c, 0) ~dst:(m, 0);
        Alg.depend alg ~src:(c, 0) ~dst:(a, 0);
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        (* memory sits on the producer's operator *)
        check_true "same operator" (Sched.operator_of sched m = Sched.operator_of sched c));
    test "conditioned branches reserve sequential windows" (fun () ->
        let alg = Alg.create ~name:"cond" ~period:1. in
        let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"m" (mode, 0);
        let b0 =
          Alg.add_op alg ~name:"b0" ~kind:Alg.Compute ~outputs:[| 1 |]
            ~cond:{ Alg.var = "m"; value = 0 } ()
        in
        let b1 =
          Alg.add_op alg ~name:"b1" ~kind:Alg.Compute ~outputs:[| 1 |]
            ~cond:{ Alg.var = "m"; value = 1 } ()
        in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.1 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        (* implicit dependency: both branches start after the source *)
        let t_mode = (Sched.slot_of sched mode).Sched.cs_start in
        let f_mode = t_mode +. (Sched.slot_of sched mode).Sched.cs_duration in
        check_true "b0 after source" ((Sched.slot_of sched b0).Sched.cs_start >= f_mode);
        check_true "b1 after source" ((Sched.slot_of sched b1).Sched.cs_start >= f_mode);
        check_float ~eps:1e-9 "three windows" 0.3 sched.Sched.makespan);
    test "heterogeneous WCETs steer the mapping to the faster operator" (fun () ->
        let alg, _, c, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.0001 [ "slow"; "fast" ] in
        let d = Dur.create () in
        (* the law runs 5x faster on the DSP-like operator *)
        Dur.set d ~op:"sense" ~operator:"slow" 0.001;
        Dur.set d ~op:"sense" ~operator:"fast" 0.001;
        Dur.set d ~op:"law" ~operator:"slow" 0.05;
        Dur.set d ~op:"law" ~operator:"fast" 0.01;
        Dur.set d ~op:"act" ~operator:"slow" 0.001;
        Dur.set d ~op:"act" ~operator:"fast" 0.001;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_true "law on the fast operator"
          (Arch.operator_name arch (Sched.operator_of sched c) = "fast"));
    test "ASIC-style operator hosting exactly one operation" (fun () ->
        (* the law exists only on the accelerator; everything else
           only on the CPU — models the paper's ASIC/FPGA components *)
        let alg, s, c, a = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.0001 [ "cpu"; "asic" ] in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"cpu" 0.001;
        Dur.set d ~op:"law" ~operator:"asic" 0.002;
        Dur.set d ~op:"act" ~operator:"cpu" 0.001;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_true "forced mapping"
          (Arch.operator_name arch (Sched.operator_of sched c) = "asic"
          && Arch.operator_name arch (Sched.operator_of sched s) = "cpu"
          && Arch.operator_name arch (Sched.operator_of sched a) = "cpu");
        check_int "two transfers" 2 (List.length sched.Sched.comm));
    test "earliest-finish strategy also yields a valid schedule" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d = uniform_durations alg [ "P0"; "P1" ] 0.01 in
        let sched =
          Adq.run ~strategy:Adq.Earliest_finish ~algorithm:alg ~architecture:arch
            ~durations:d ()
        in
        check_true "valid by construction" (sched.Sched.makespan > 0.));
    test "critical path lower bound holds" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let cp = Adq.critical_path ~algorithm:alg ~architecture:arch ~durations:d in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_true "makespan >= cp" (sched.Sched.makespan +. 1e-12 >= cp));
    test "schedule validation rejects overlap" (fun () ->
        let alg, s, c, a = chain_algorithm () in
        let arch = Arch.single () in
        let p0 = List.hd (Arch.operators arch) in
        let slot op start =
          { Sched.cs_op = op; cs_operator = p0; cs_start = start; cs_duration = 0.02 }
        in
        check_raises_invalid "overlap" (fun () ->
            ignore
              (Sched.make ~algorithm:alg ~architecture:arch
                 ~comp:[ slot s 0.; slot c 0.01; slot a 0.03 ]
                 ~comm:[])));
    test "schedule validation rejects precedence violation" (fun () ->
        let alg, s, c, a = chain_algorithm () in
        let arch = Arch.single () in
        let p0 = List.hd (Arch.operators arch) in
        let slot op start =
          { Sched.cs_op = op; cs_operator = p0; cs_start = start; cs_duration = 0.01 }
        in
        check_raises_invalid "precedence" (fun () ->
            ignore
              (Sched.make ~algorithm:alg ~architecture:arch
                 ~comp:[ slot c 0.; slot s 0.02; slot a 0.04 ]
                 ~comm:[])));
    test "schedule validation requires missing transfers" (fun () ->
        let alg, s, c, a = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let p0 = Option.get (Arch.find_operator arch "P0") in
        let p1 = Option.get (Arch.find_operator arch "P1") in
        let slot op operator start =
          { Sched.cs_op = op; cs_operator = operator; cs_start = start; cs_duration = 0.01 }
        in
        check_raises_invalid "missing transfer" (fun () ->
            ignore
              (Sched.make ~algorithm:alg ~architecture:arch
                 ~comp:[ slot s p0 0.; slot c p1 0.02; slot a p0 0.04 ]
                 ~comm:[])));
    test "gantt renders all operators" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let s = Aaa.Gantt.render sched in
        check_true "P0 row" (contains s "P0");
        check_true "op name" (contains s "sense"));
    qtest "random layered DAGs always schedule validly" ~count:40
      QCheck2.Gen.(triple (int_range 1 4) (int_range 1 3) (int_range 0 100_000))
      (fun (layers, width, seed) ->
        let rng = Numerics.Rng.create seed in
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
                let inputs =
                  if layer = 0 then [||] else [| 1 |]
                in
                let outputs = if layer = layers - 1 then [||] else [| 1 |] in
                Alg.add_op alg
                  ~name:(Printf.sprintf "op_%d_%d" layer i)
                  ~kind ~inputs ~outputs ())
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
        let n_ops = float_of_int (Alg.op_count alg) in
        ignore n_ops;
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1"; "P2" ] in
        let d = Dur.create () in
        List.iter
          (fun op ->
            Dur.set_everywhere d ~op:(Alg.op_name alg op) ~operators:[ "P0"; "P1"; "P2" ]
              (0.001 +. Numerics.Rng.float rng 0.01))
          (Alg.ops alg);
        (* Schedule.make validates internally; reaching here is the test *)
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        sched.Sched.makespan > 0.);
  ]

(* ------------------------------------------------------------------ *)
(* Codegen *)

let codegen_tests =
  [
    test "programs start with wait_period" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        List.iter
          (fun (_, body) ->
            match body with
            | Aaa.Codegen.Wait_period :: _ -> ()
            | _ -> Alcotest.fail "program must begin with wait_period")
          exe.Aaa.Codegen.programs);
    test "sends and recvs generated for transfers" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let count pred =
          List.fold_left
            (fun acc (_, body) -> acc + List.length (List.filter pred body))
            0 exe.Aaa.Codegen.programs
        in
        check_int "2 sends"
          2
          (count (function Aaa.Codegen.Send _ -> true | _ -> false));
        check_int "2 recvs"
          2
          (count (function Aaa.Codegen.Recv _ -> true | _ -> false)));
    test "listing mentions conditioned operations" (fun () ->
        let alg = Alg.create ~name:"cond" ~period:1. in
        let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"m" (mode, 0);
        let _ =
          Alg.add_op alg ~name:"branch0" ~kind:Alg.Compute
            ~cond:{ Alg.var = "m"; value = 0 } ()
        in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        check_true "if rendered" (contains (Aaa.Codegen.to_string exe) "if m = 0"));
    test "exec order matches schedule order per operator" (fun () ->
        let alg, s, c, a = chain_algorithm () in
        let arch = Arch.single () in
        let d = uniform_durations alg [ "P0" ] 0.01 in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let p0 = List.hd (Arch.operators arch) in
        let execs =
          List.filter_map
            (function Aaa.Codegen.Exec op -> Some op | _ -> None)
            (Aaa.Codegen.program_of exe p0)
        in
        check_true "order" (execs = [ s; c; a ]));
  ]

(* P0 —busA— GW —busB— P1: reaching P1 from P0 requires two hops *)
let gateway_arch () =
  let arch = Arch.create ~name:"gateway" in
  let p0 = Arch.add_operator arch ~name:"P0" in
  let gw = Arch.add_operator arch ~name:"GW" in
  let p1 = Arch.add_operator arch ~name:"P1" in
  let _ =
    Arch.add_medium arch ~name:"busA" ~kind:Arch.Bus ~latency:0.001 ~time_per_word:0.001
      [ p0; gw ]
  in
  let _ =
    Arch.add_medium arch ~name:"busB" ~kind:Arch.Bus ~latency:0.002 ~time_per_word:0.001
      [ gw; p1 ]
  in
  (arch, p0, gw, p1)

let routing_tests =
  [
    test "routes finds the two-hop path through the gateway" (fun () ->
        let arch, p0, gw, p1 = gateway_arch () in
        (match Arch.routes arch p0 p1 with
        | [ route ] ->
            check_int "two hops" 2 (List.length route);
            check_true "via gateway" (List.map snd route = [ gw; p1 ])
        | l -> Alcotest.failf "expected one route, got %d" (List.length l));
        check_int "direct route is single hop" 1
          (List.length (List.hd (Arch.routes arch p0 gw))));
    test "routes respects max_hops" (fun () ->
        let arch, p0, _, p1 = gateway_arch () in
        check_int "no route within one hop" 0
          (List.length (Arch.routes ~max_hops:1 arch p0 p1)));
    test "adequation schedules across the gateway" (fun () ->
        let alg, s, c, a = chain_algorithm () in
        let arch, _, _, _ = gateway_arch () in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        (* sense→law and law→act both need 2 hops *)
        check_int "four hop slots" 4 (List.length sched.Sched.comm);
        let chain =
          Sched.transfer_chain sched
            ((s, 0), (c, 0))
            ~from_operator:(Sched.operator_of sched s)
            ~to_operator:(Sched.operator_of sched c)
        in
        check_int "two hops" 2 (List.length chain);
        ignore a);
    test "executive over a gateway runs deadlock-free with correct latency" (fun () ->
        let alg, _, _, a = chain_algorithm () in
        let arch, _, _, _ = gateway_arch () in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let config =
          { Exec.Machine.default_config with law = Exec.Timing_law.Wcet; iterations = 20 }
        in
        let trace = Exec.Machine.run ~config exe in
        check_true "order conformant" (Exec.Machine.order_conformant trace);
        (* WCET law replays the static schedule exactly, hops included *)
        let slot = Sched.slot_of sched a in
        let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
        (match Exec.Machine.actuation_latencies trace with
        | [ (_, lat) ] -> Array.iter (fun l -> check_float ~eps:1e-9 "La" static l) lat
        | _ -> Alcotest.fail "expected one actuator"));
    test "time-triggered baseline handles multi-hop routes too" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch, _, _, _ = gateway_arch () in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let exe = Aaa.Codegen.generate sched in
        let trace =
          Exec.Async.run ~config:{ Exec.Machine.default_config with iterations = 50 } exe
        in
        check_int "fresh under WCET contract" 0 trace.Exec.Async.violations;
        check_true "reads checked" (trace.Exec.Async.remote_consumptions > 0));
    test "delay graph gates on the final hop across a gateway" (fun () ->
        (* co-simulate the fig2 loop with the pid behind a gateway *)
        let g = Dataflow.Graph.create () in
        let plant =
          Dataflow.Graph.add g
            (Dataflow.Clib.lti_continuous ~name:"plant" ~x0:[| 0. |]
               (Control.Plants.first_order ~tau:0.5 ~gain:1.))
        in
        let sampler = Dataflow.Graph.add g (Dataflow.Clib.sample_hold ~name:"sample_y" 1) in
        let law =
          Dataflow.Graph.add g
            (Dataflow.Clib.stateful ~name:"law" ~in_widths:[| 1 |] ~out_widths:[| 1 |]
               (fun i -> [| i.(0) |]))
        in
        let hold = Dataflow.Graph.add g (Dataflow.Clib.sample_hold ~name:"hold_u" 1) in
        Dataflow.Graph.connect_data g ~src:(plant, 0) ~dst:(sampler, 0);
        Dataflow.Graph.connect_data g ~src:(sampler, 0) ~dst:(law, 0);
        Dataflow.Graph.connect_data g ~src:(law, 0) ~dst:(hold, 0);
        Dataflow.Graph.connect_data g ~src:(hold, 0) ~dst:(plant, 0);
        let alg, binding =
          Translator.Scicos_to_syndex.extract g
            {
              Translator.Scicos_to_syndex.members = [ sampler; law; hold ];
              memories = [];
              period = 0.1;
            }
        in
        let arch, _, _, _ = gateway_arch () in
        let d = Dur.create () in
        Dur.set d ~op:"sample_y" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"hold_u" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let _ = Translator.Cosim.attach_delay_graph ~graph:g ~schedule:sched ~binding () in
        let e = Sim.Engine.create g in
        Sim.Engine.run ~t_end:0.099 e;
        let op_law = Option.get (Alg.find_op alg "law") in
        let slot = Sched.slot_of sched op_law in
        match Sim.Engine.activations e ~block:law with
        | [ t ] ->
            check_float ~eps:1e-9 "law activated at its gated completion"
              (slot.Sched.cs_start +. slot.Sched.cs_duration)
              t
        | l -> Alcotest.failf "expected 1 activation, got %d" (List.length l));
  ]

let hierarchy_tests =
  let module H = Aaa.Hierarchy in
  (* one wheel-station subsystem: sense -> filter, reused twice *)
  let two_wheel_spec () =
    let spec = H.create ~name:"vehicle" ~period:0.01 in
    H.define_atom spec ~name:"sense" ~kind:Alg.Sensor ~outputs:[ ("y", 1) ] ();
    H.define_atom spec ~name:"filter" ~kind:Alg.Compute ~inputs:[ ("u", 1) ]
      ~outputs:[ ("y", 1) ] ();
    H.define_subsystem spec ~name:"wheel_station" ~outputs:[ ("speed", 1) ]
      ~elements:[ ("s", "sense"); ("f", "filter") ]
      ~links:
        [ (("s", "y"), ("f", "u")); (("f", "y"), (H.boundary, "speed")) ]
      ();
    H.define_atom spec ~name:"law" ~kind:Alg.Compute
      ~inputs:[ ("left", 1); ("right", 1) ]
      ~outputs:[ ("force", 1) ] ();
    H.define_atom spec ~name:"act" ~kind:Alg.Actuator ~inputs:[ ("u", 1) ] ();
    H.define_subsystem spec ~name:"main"
      ~elements:
        [ ("lw", "wheel_station"); ("rw", "wheel_station"); ("c", "law"); ("a", "act") ]
      ~links:
        [
          (("lw", "speed"), ("c", "left"));
          (("rw", "speed"), ("c", "right"));
          (("c", "force"), ("a", "u"));
        ]
      ();
    spec
  in
  [
    test "flattening expands instances with path names" (fun () ->
        let alg = H.flatten (two_wheel_spec ()) ~root:"main" in
        check_int "2x2 + law + act" 6 (Alg.op_count alg);
        check_true "mangled names" (Alg.find_op alg "lw/s" <> None);
        check_true "shared template reused" (Alg.find_op alg "rw/f" <> None));
    test "flattened dependencies cross boundary ports" (fun () ->
        let alg = H.flatten (two_wheel_spec ()) ~root:"main" in
        let law = Option.get (Alg.find_op alg "c") in
        let srcs =
          List.map (fun p -> Alg.dep_source alg law p) [ 0; 1 ]
          |> List.map (fun s -> Alg.op_name alg (fst (Option.get s)))
          |> List.sort compare
        in
        check_true "filters feed the law" (srcs = [ "lw/f"; "rw/f" ]);
        check_int "sensors found" 2 (List.length (Alg.sensors alg)));
    test "flattened graph schedules like a hand-built one" (fun () ->
        let alg = H.flatten (two_wheel_spec ()) ~root:"main" in
        let arch = Arch.bus_topology ~time_per_word:1e-4 [ "P0"; "P1" ] in
        let d = Dur.create () in
        List.iter
          (fun op ->
            Dur.set_everywhere d ~op:(Alg.op_name alg op) ~operators:[ "P0"; "P1" ] 0.001)
          (Alg.ops alg);
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_true "parallel wheel stations"
          (sched.Sched.makespan < 6. *. 0.001));
    test "recursive instantiation rejected" (fun () ->
        let spec = H.create ~name:"x" ~period:1. in
        H.define_subsystem spec ~name:"a" ~elements:[ ("inner", "a") ] ~links:[] ();
        check_raises_invalid "recursion" (fun () ->
            ignore (H.flatten spec ~root:"a")));
    test "unknown definition rejected" (fun () ->
        let spec = H.create ~name:"x" ~period:1. in
        H.define_subsystem spec ~name:"main" ~elements:[ ("i", "ghost") ] ~links:[] ();
        check_raises_invalid "ghost" (fun () -> ignore (H.flatten spec ~root:"main")));
    test "unwired atom input rejected" (fun () ->
        let spec = H.create ~name:"x" ~period:1. in
        H.define_atom spec ~name:"consumer" ~kind:Alg.Compute ~inputs:[ ("u", 1) ] ();
        H.define_subsystem spec ~name:"main" ~elements:[ ("c", "consumer") ] ~links:[] ();
        check_raises_invalid "unwired" (fun () -> ignore (H.flatten spec ~root:"main")));
    test "width mismatch across boundary rejected" (fun () ->
        let spec = H.create ~name:"x" ~period:1. in
        H.define_atom spec ~name:"wide" ~kind:Alg.Sensor ~outputs:[ ("y", 2) ] ();
        H.define_atom spec ~name:"narrow" ~kind:Alg.Actuator ~inputs:[ ("u", 1) ] ();
        H.define_subsystem spec ~name:"main"
          ~elements:[ ("s", "wide"); ("a", "narrow") ]
          ~links:[ (("s", "y"), ("a", "u")) ]
          ();
        check_raises_invalid "width" (fun () -> ignore (H.flatten spec ~root:"main")));
    test "root with boundary ports rejected" (fun () ->
        let spec = H.create ~name:"x" ~period:1. in
        H.define_subsystem spec ~name:"main" ~inputs:[ ("u", 1) ] ~elements:[] ~links:[] ();
        check_raises_invalid "boundary" (fun () -> ignore (H.flatten spec ~root:"main")));
    test "three-level nesting flattens with full paths" (fun () ->
        let module H = Aaa.Hierarchy in
        let spec = H.create ~name:"deep" ~period:1. in
        H.define_atom spec ~name:"leaf" ~kind:Alg.Sensor ~outputs:[ ("y", 1) ] ();
        H.define_atom spec ~name:"sink" ~kind:Alg.Actuator ~inputs:[ ("u", 1) ] ();
        H.define_subsystem spec ~name:"inner" ~outputs:[ ("out", 1) ]
          ~elements:[ ("l", "leaf") ]
          ~links:[ (("l", "y"), (H.boundary, "out")) ]
          ();
        H.define_subsystem spec ~name:"middle" ~outputs:[ ("out", 1) ]
          ~elements:[ ("i", "inner") ]
          ~links:[ (("i", "out"), (H.boundary, "out")) ]
          ();
        H.define_subsystem spec ~name:"main"
          ~elements:[ ("m", "middle"); ("s", "sink") ]
          ~links:[ (("m", "out"), ("s", "u")) ]
          ();
        let alg = H.flatten spec ~root:"main" in
        check_true "deep path" (Alg.find_op alg "m/i/l" <> None);
        let sink = Option.get (Alg.find_op alg "s") in
        match Alg.dep_source alg sink 0 with
        | Some (src, _) -> check_true "wired through two boundaries" (Alg.op_name alg src = "m/i/l")
        | None -> Alcotest.fail "sink not wired");
    test "duplicate definitions and instances rejected" (fun () ->
        let spec = H.create ~name:"x" ~period:1. in
        H.define_atom spec ~name:"a" ~kind:Alg.Compute ();
        check_raises_invalid "dup def" (fun () ->
            H.define_atom spec ~name:"a" ~kind:Alg.Compute ());
        check_raises_invalid "dup instance" (fun () ->
            H.define_subsystem spec ~name:"s"
              ~elements:[ ("i", "a"); ("i", "a") ]
              ~links:[] ()));
  ]

let adot_tests =
  [
    test "algorithm export mentions kinds and conditions" (fun () ->
        let alg = Alg.create ~name:"x" ~period:1. in
        let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
        Alg.set_condition_source alg ~var:"m" (mode, 0);
        let b =
          Alg.add_op alg ~name:"branch" ~kind:Alg.Compute
            ~cond:{ Alg.var = "m"; value = 1 } ()
        in
        ignore b;
        let dot = Aaa.Adot.algorithm alg in
        check_true "sensor shape" (contains dot "invhouse");
        check_true "condition label" (contains dot "m=1"));
    test "architecture export links media to endpoints" (fun () ->
        let arch = Arch.bus_topology ~time_per_word:1. [ "P0"; "P1"; "P2" ] in
        let dot = Aaa.Adot.architecture arch in
        check_true "diamond medium" (contains dot "diamond");
        check_true "names" (contains dot "P2"));
    test "schedule export clusters per operator" (fun () ->
        let alg, _, _, _ = chain_algorithm () in
        let arch = Arch.bus_topology ~time_per_word:0.001 [ "P0"; "P1" ] in
        let d = Dur.create () in
        Dur.set d ~op:"sense" ~operator:"P0" 0.01;
        Dur.set d ~op:"law" ~operator:"P1" 0.01;
        Dur.set d ~op:"act" ~operator:"P0" 0.01;
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let dot = Aaa.Adot.schedule sched in
        check_true "clusters" (contains dot "subgraph cluster_p0");
        check_true "transfer edge" (contains dot "color=red"));
  ]

let workloads_tests =
  [
    test "chain generator produces a schedulable pipeline" (fun () ->
        let alg, d = Aaa.Workloads.chain ~stages:5 ~operators:[ "P0" ] () in
        check_int "5 ops" 5 (Alg.op_count alg);
        let sched =
          Adq.run ~algorithm:alg ~architecture:(Arch.single ()) ~durations:d ()
        in
        check_float ~eps:1e-12 "serial makespan" 0.05 sched.Sched.makespan);
    test "fork_join generator matches the hand-built workload" (fun () ->
        let alg, d =
          Aaa.Workloads.fork_join ~branches:6 ~operators:[ "P0"; "P1"; "P2" ] ()
        in
        check_int "ops" 9 (Alg.op_count alg);
        let arch = Arch.bus_topology ~latency:0.005 ~time_per_word:0.002 [ "P0"; "P1"; "P2" ] in
        let sched = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        check_true "parallel speedup" (sched.Sched.makespan < 0.81));
    test "layered generator is valid and reproducible" (fun () ->
        let make () =
          let rng = Numerics.Rng.create 5 in
          Aaa.Workloads.layered ~rng ~layers:4 ~width:3 ~operators:[ "P0"; "P1" ] ()
        in
        let alg1, _ = make () and alg2, _ = make () in
        Alg.validate alg1;
        check_int "same shape" (Alg.op_count alg1) (Alg.op_count alg2);
        check_int "12 ops" 12 (Alg.op_count alg1));
    test "generators validate their parameters" (fun () ->
        check_raises_invalid "stages" (fun () ->
            ignore (Aaa.Workloads.chain ~stages:1 ~operators:[ "P0" ] ()));
        check_raises_invalid "branches" (fun () ->
            ignore (Aaa.Workloads.fork_join ~branches:0 ~operators:[ "P0" ] ()));
        check_raises_invalid "layers" (fun () ->
            ignore
              (Aaa.Workloads.layered ~rng:(Numerics.Rng.create 0) ~layers:1 ~width:1
                 ~operators:[ "P0" ] ())));
  ]

let refine_tests =
  [
    test "refine never returns a worse schedule" (fun () ->
        let rng = Numerics.Rng.create 11 in
        let alg, d =
          Aaa.Workloads.layered ~rng ~layers:4 ~width:3 ~operators:[ "P0"; "P1"; "P2" ] ()
        in
        let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1"; "P2" ] in
        let initial = Adq.run ~algorithm:alg ~architecture:arch ~durations:d () in
        let refined =
          Adq.refine ~iterations:100 ~algorithm:alg ~architecture:arch ~durations:d
            ~initial ()
        in
        check_true "no regression" (refined.Sched.makespan <= initial.Sched.makespan +. 1e-12));
    test "refine recovers from a bad initial mapping" (fun () ->
        (* force everything on one processor, then let refinement
           rediscover the parallelism *)
        let alg, d =
          Aaa.Workloads.fork_join ~branches:6 ~operators:[ "P0"; "P1"; "P2" ] ()
        in
        let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1"; "P2" ] in
        let all_on_p0 =
          List.map (fun op -> (Alg.op_name alg op, "P0")) (Alg.ops alg)
        in
        let initial = Adq.run ~pins:all_on_p0 ~algorithm:alg ~architecture:arch ~durations:d () in
        let refined =
          Adq.refine ~iterations:300 ~seed:3 ~algorithm:alg ~architecture:arch
            ~durations:d ~initial ()
        in
        check_true "found parallelism"
          (refined.Sched.makespan < 0.9 *. initial.Sched.makespan));
    test "refine with no movable operation returns the initial schedule" (fun () ->
        let alg, d = Aaa.Workloads.chain ~stages:3 ~operators:[ "P0" ] () in
        let initial = Adq.run ~algorithm:alg ~architecture:(Arch.single ()) ~durations:d () in
        let refined =
          Adq.refine ~algorithm:alg ~architecture:(Arch.single ()) ~durations:d ~initial ()
        in
        check_float ~eps:0. "same" initial.Sched.makespan refined.Sched.makespan);
  ]

let suites =
  [
    ("aaa.algorithm", algorithm_tests);
    ("aaa.workloads", workloads_tests);
    ("aaa.refine", refine_tests);
    ("aaa.routing", routing_tests);
    ("aaa.hierarchy", hierarchy_tests);
    ("aaa.adot", adot_tests);
    ("aaa.architecture", architecture_tests);
    ("aaa.durations", durations_tests);
    ("aaa.adequation", adequation_tests);
    ("aaa.codegen", codegen_tests);
  ]
