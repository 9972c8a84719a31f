(* Golden trace pins for the executives.  Every case renders one run
   canonically — floats in hexadecimal (%h), every counter, the
   recovery events sorted, every bus log entry — and compares the MD5
   of that rendering with the recorded digest.  A change anywhere in
   timing, RNG draw order or bookkeeping shows up as a mismatch.

   The matrix is Machine and Async × {fixed media, bus models with
   background load} × {no faults, injected faults with retransmission
   and the freshness watchdog on}, each on two gateway schedules drawn
   by [Test_props.random_schedule] (two buses joined by P1, so P0↔P2
   transfers cross both media), plus a two-phase Machine failover and
   a hot-standby run on the fork/join fixture. *)

open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Sched = Aaa.Schedule
module Machine = Exec.Machine
module Async = Exec.Async
module Standby = Exec.Standby
module Recovery = Exec.Recovery
module Injection = Exec.Injection
module Bus = Media.Bus
module Load = Media.Load

(* ------------------------------------------------------------------ *)
(* canonical rendering *)

let render_event = function
  | Recovery.Stale_detected { time; iteration; op } ->
      Printf.sprintf "stale %h %d %s" time iteration op
  | Recovery.Transfer_recovered { time; iteration; medium; attempts } ->
      Printf.sprintf "recovered %h %d %s %d" time iteration medium attempts
  | Recovery.Retries_exhausted { time; iteration; medium; attempts } ->
      Printf.sprintf "exhausted %h %d %s %d" time iteration medium attempts
  | Recovery.Failstop_confirmed { time; operator; fail_time } ->
      Printf.sprintf "confirmed %h %s %h" time operator fail_time
  | Recovery.Mode_switched { time; iteration; operator } ->
      Printf.sprintf "switched %h %d %s" time iteration operator
  | Recovery.Voter_switched { time; iteration; operator } ->
      Printf.sprintf "voter %h %d %s" time iteration operator

let add_events b events =
  List.map render_event events
  |> List.sort String.compare
  |> List.iter (fun s -> Printf.bprintf b "event %s\n" s)

let add_bus_log b log =
  List.iter
    (fun (name, completions) ->
      Printf.bprintf b "bus %s %d\n" name (List.length completions);
      List.iter
        (fun (c : Bus.completion) ->
          Printf.bprintf b "  %d %d %h %h %h %d %b %b\n" c.Bus.c_ident c.Bus.c_node
            c.Bus.c_release c.Bus.c_start c.Bus.c_finish c.Bus.c_attempts c.Bus.c_dropped
            c.Bus.c_background)
        completions)
    log

let add_floats b name arr =
  Printf.bprintf b "%s" name;
  Array.iter (fun x -> Printf.bprintf b " %h" x) arr;
  Buffer.add_char b '\n'

let rec add_machine b (t : Machine.trace) =
  Printf.bprintf b "machine %h %d\n" t.Machine.period t.Machine.iterations;
  List.iter
    (fun (e : Machine.op_exec) ->
      Printf.bprintf b "op %d %d %d %h %h %b %b\n" e.Machine.oe_iteration
        (e.Machine.oe_op :> int)
        (e.Machine.oe_operator :> int)
        e.Machine.oe_start e.Machine.oe_finish e.Machine.oe_skipped e.Machine.oe_failed)
    t.Machine.ops;
  List.iter
    (fun (e : Machine.comm_exec) ->
      let c = e.Machine.ce_slot in
      Printf.bprintf b "comm %d %d.%d>%d.%d hop %d on %d %h %h\n" e.Machine.ce_iteration
        (fst c.Sched.cm_src :> int)
        (snd c.Sched.cm_src)
        (fst c.Sched.cm_dst :> int)
        (snd c.Sched.cm_dst) c.Sched.cm_hop
        (c.Sched.cm_medium :> int)
        e.Machine.ce_start e.Machine.ce_finish)
    t.Machine.comms;
  add_floats b "ends" t.Machine.iteration_end;
  Printf.bprintf b "counters %d %d %d %d %d\n" t.Machine.overruns t.Machine.lost_transfers
    t.Machine.stale_reads t.Machine.retransmissions t.Machine.recovered_transfers;
  add_events b t.Machine.recovery_events;
  (match t.Machine.detection_latency with
  | Some l -> Printf.bprintf b "latency %h\n" l
  | None -> Buffer.add_string b "latency -\n");
  (match t.Machine.switched_at with
  | Some k -> Printf.bprintf b "switched_at %d\n" k
  | None -> Buffer.add_string b "switched_at -\n");
  add_bus_log b t.Machine.bus_log;
  match t.Machine.continuation with
  | Some c ->
      Buffer.add_string b "continuation\n";
      add_machine b c
  | None -> ()

let add_async b (t : Async.trace) =
  Printf.bprintf b "async %h %d\n" t.Async.period t.Async.iterations;
  Printf.bprintf b "counters %d %d %d %d %d %d\n" t.Async.violations
    t.Async.remote_consumptions t.Async.overruns t.Async.lost_transfers
    t.Async.retransmissions t.Async.recovered_transfers;
  List.iter
    (fun ((op : Alg.op_id), lat) -> add_floats b (Printf.sprintf "La %d" (op :> int)) lat)
    t.Async.actuation_latencies;
  add_events b t.Async.recovery_events;
  add_bus_log b t.Async.bus_log

let add_standby b (t : Standby.trace) =
  Printf.bprintf b "standby %s\n" t.Standby.protects;
  Array.iter
    (fun (d : Standby.decision) ->
      Printf.bprintf b "vote %d %s %h %b\n" d.Standby.d_iteration
        (Standby.vote_name d.Standby.d_vote)
        d.Standby.d_time d.Standby.d_diverged)
    t.Standby.decisions;
  (match t.Standby.takeover with
  | Some (k, time) -> Printf.bprintf b "takeover %d %h\n" k time
  | None -> Buffer.add_string b "takeover -\n");
  List.iter (fun k -> Printf.bprintf b "diverged %d\n" k) t.Standby.divergences;
  add_events b t.Standby.events;
  Buffer.add_string b "primary\n";
  add_machine b t.Standby.primary;
  Buffer.add_string b "replica\n";
  add_machine b t.Standby.replica

let digest add x =
  let b = Buffer.create 4096 in
  add b x;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* fixtures *)

(* schedule seeds whose random draw is the gateway architecture with
   at least one two-hop (busA then busB) transfer *)
let gateway_seeds = [ 39; 46 ]

let gateway seed =
  let _, sched = Test_props.random_schedule seed in
  (sched, Aaa.Codegen.generate sched)

let two_hop sched = List.exists (fun c -> c.Sched.cm_hop > 0) sched.Sched.comm

(* background load on both buses, with some corrupted attempts (a
   frame corrupted twice drops at retry limit 1) and P2's interface
   going bus-off late in the run *)
let gateway_buses =
  let faults =
    {
      Bus.f_corrupted = (fun ~ident:_ ~node:_ ~attempt ~seq -> seq mod 7 = 3 && attempt <= 2);
      f_node_off = (fun ~node ~time -> node = 2 && time >= 45.);
    }
  in
  List.map
    (fun (name, seed) ->
      ( name,
        Bus.make ~name ~time_per_word:0.0005 ~frame_overhead:0.0002 ~retry_limit:1 ~seed
          ~faults
          ~load:
            [
              Load.periodic ~jitter_frac:0.5 ~node:1000 ~ident:1 ~words:2 ~period:0.02 ();
              Load.periodic ~jitter_frac:0.2 ~node:1001 ~ident:5000 ~words:3 ~period:0.03 ();
            ]
          () ))
    [ ("busA", 3); ("busB", 4) ]

let gateway_injection =
  Injection.make
    ~transfer_lost:(fun ~iteration ~slot ->
      (iteration + slot.Sched.cm_hop + (fst slot.Sched.cm_src :> int)) mod 3 = 0)
    ~retry_lost:(fun ~attempt ~iteration ~slot:_ -> attempt = 1 && iteration mod 2 = 0)
    ~medium_down:(fun ~medium ~time -> medium = "busA" && time >= 20. && time < 20.05)
    ~overrun:(fun ~iteration ~op ->
      if iteration = 2 && String.length op mod 2 = 0 then Some 3. else None)
    ()

let gateway_config ~seed ~buses ~faults =
  {
    Machine.default_config with
    iterations = 6;
    comm_jitter_frac = 0.3;
    overrun_prob = 0.2;
    seed;
    bus_models = (if buses then gateway_buses else []);
    injection = (if faults then gateway_injection else Injection.none);
    recovery = (if faults then Recovery.make ~period:10. () else Recovery.disabled);
  }

(* the fork/join fixture of test_recovery on three processors: every
   single-operator failover is feasible and keeps the shared bus, so P0
   has both a failover executive and a standby plan *)
let fork_join =
  lazy
    (let operators = [ "P0"; "P1"; "P2" ] in
     let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 operators in
     let alg, d =
       Aaa.Workloads.fork_join ~period:0.5 ~branch_wcet:0.1 ~branches:4 ~operators ()
     in
     let nominal = Aaa.Adequation.run ~algorithm:alg ~architecture:arch ~durations:d () in
     let table =
       Fault.Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
     in
     let plan =
       match Fault.Degrade.standby_plan_for table ~nominal ~operator:"P0" with
       | Some plan -> plan
       | None -> failwith "expected a feasible standby plan for P0"
     in
     (arch, d, Aaa.Codegen.generate nominal, Fault.Degrade.failover_executives table, plan))

let fork_join_config ~buses ~failover =
  let arch, d, _, _, _ = Lazy.force fork_join in
  let injection =
    Fault.Scenario.injection
      (Fault.Scenario.make ~name:"kill_P0" ~seed:9
         [ Fault.Scenario.Processor_failstop { operator = "P0"; at = 0.9 } ])
      ~architecture:arch
  in
  {
    Machine.default_config with
    iterations = 12;
    comm_jitter_frac = 0.3;
    overrun_prob = 0.2;
    seed = 5;
    durations = Some d;
    injection;
    recovery = Recovery.make ~failover ~period:0.5 ();
    bus_models =
      (if buses then
         [
           ( "bus",
             Bus.make ~name:"bus" ~time_per_word:0.0005 ~seed:6
               ~load:
                 [ Load.periodic ~jitter_frac:0.5 ~node:1000 ~ident:1 ~words:4 ~period:0.05 () ]
               () );
         ]
       else []);
  }

(* ------------------------------------------------------------------ *)
(* the pins *)

(* one pinned digest per case *)
let expected =
  [
    ("machine/schedule 39/seed 1/fixed/clean", "32c5690c6d5a7b76b4be8659a4c54628");
    ("async/schedule 39/seed 1/fixed/clean", "cfcacf35456082aadb2b5adc8ddc0014");
    ("machine/schedule 39/seed 1/fixed/faults", "a2db15baab3ebac7cb6a2c433996703f");
    ("async/schedule 39/seed 1/fixed/faults", "d75156a2fbfb27abdb49b40074c8311d");
    ("machine/schedule 39/seed 1/bus/clean", "59a754576858396cff16fa10ba52c015");
    ("async/schedule 39/seed 1/bus/clean", "d4e9ef727378c460782490cc9ef6ab15");
    ("machine/schedule 39/seed 1/bus/faults", "8990eaf2a980c782e333779ac6e0930d");
    ("async/schedule 39/seed 1/bus/faults", "547c18cc27eac07d10db3ed6e02cc2b6");
    ("machine/schedule 46/seed 2/fixed/clean", "ac2149a0898771f51a9c7ad5764a9184");
    ("async/schedule 46/seed 2/fixed/clean", "77167d81aef8bf8bbc2c529620daa4c6");
    ("machine/schedule 46/seed 2/fixed/faults", "2d0129cfa85cf42f75e131756ba3d959");
    ("async/schedule 46/seed 2/fixed/faults", "241a82231eb00337eb990105666de25f");
    ("machine/schedule 46/seed 2/bus/clean", "31c2cb09d655e15ac1efe8006246681e");
    ("async/schedule 46/seed 2/bus/clean", "1dc3c21181ba46ef6d8fb9dac007bd2c");
    ("machine/schedule 46/seed 2/bus/faults", "6c777617399267ea11978d9de8fb8b09");
    ("async/schedule 46/seed 2/bus/faults", "ee8491925c1e7df5538b61093a67696b");
    ("machine failover/fixed", "46506cbe2a2e34ca1a90cdae8ddd10bd");
    ("machine failover/bus", "937813147e10fa4c026f3f7cfe838b08");
    ("standby/fixed", "9ef5374844d11fdcef00bb2d22375594");
    ("standby/bus", "578624f48944c90939b1e505bb99f8a4");
  ]

let cases () =
  let matrix =
    List.concat_map
      (fun (sched_seed, run_seed) ->
        let _, exe = gateway sched_seed in
        List.concat_map
          (fun buses ->
            List.concat_map
              (fun faults ->
                let config = gateway_config ~seed:run_seed ~buses ~faults in
                let name executive =
                  Printf.sprintf "%s/schedule %d/seed %d/%s/%s" executive sched_seed run_seed
                    (if buses then "bus" else "fixed")
                    (if faults then "faults" else "clean")
                in
                [
                  (name "machine", fun () -> digest add_machine (Machine.run ~config exe));
                  (name "async", fun () -> digest add_async (Async.run ~config exe));
                ])
              [ false; true ])
          [ false; true ])
      (List.combine gateway_seeds [ 1; 2 ])
  in
  let failover buses =
    ( "machine failover/" ^ (if buses then "bus" else "fixed"),
      fun () ->
        let _, _, exe, failover, _ = Lazy.force fork_join in
        digest add_machine (Machine.run ~config:(fork_join_config ~buses ~failover) exe) )
  in
  let standby buses =
    ( "standby/" ^ (if buses then "bus" else "fixed"),
      fun () ->
        let _, _, exe, _, plan = Lazy.force fork_join in
        digest add_standby
          (Standby.run
             ~config:(fork_join_config ~buses ~failover:[])
             ~protects:"P0" ~standby:plan.Fault.Degrade.executive exe) )
  in
  matrix @ [ failover false; failover true; standby false; standby true ]

let tests =
  [
    test "the gateway schedules cross both buses" (fun () ->
        List.iter
          (fun seed ->
            let sched, _ = gateway seed in
            check_true "gateway architecture"
              (Arch.name sched.Sched.architecture = "gateway");
            check_true "a two-hop transfer" (two_hop sched))
          gateway_seeds);
    test "the failover case switches and the standby case takes over" (fun () ->
        let _, _, exe, failover, plan = Lazy.force fork_join in
        let t = Machine.run ~config:(fork_join_config ~buses:false ~failover) exe in
        check_true "two phases" (t.Machine.switched_at <> None);
        let s =
          Standby.run
            ~config:(fork_join_config ~buses:false ~failover:[])
            ~protects:"P0" ~standby:plan.Fault.Degrade.executive exe
        in
        check_true "takeover" (s.Standby.takeover <> None));
    test "every trace digest matches its pin" (fun () ->
        let mismatches =
          List.filter_map
            (fun (name, run) ->
              let actual = run () in
              match List.assoc_opt name expected with
              | Some pinned when String.equal pinned actual -> None
              | Some pinned -> Some (Printf.sprintf "%s: pinned %s, got %s" name pinned actual)
              | None -> Some (Printf.sprintf "%s: no pin, got %s" name actual))
            (cases ())
        in
        if mismatches <> [] then Alcotest.fail (String.concat "\n" mismatches));
  ]

let suites = [ ("golden.traces", tests) ]
