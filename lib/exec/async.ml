module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Sched = Aaa.Schedule
module Cg = Aaa.Codegen

type trace = {
  period : float;
  iterations : int;
  violations : int;
  remote_consumptions : int;
  actuation_latencies : (Alg.op_id * float array) list;
  overruns : int;
  lost_transfers : int;
  retransmissions : int;
  recovered_transfers : int;
  recovery_events : Recovery.event list;
  bus_log : (string * Media.Bus.completion list) list;
}

let run ?(config = Machine.default_config) exe =
  let core = Core.create ~who:"Async.run" config exe in
  let sched = exe.Cg.schedule in
  let alg = sched.Sched.algorithm in
  let period = Alg.period alg in
  let table t key = Core.row core t key Float.nan in
  let posted : (Core.slot_key, float array) Hashtbl.t = Hashtbl.create 32 in
  let read_at : (Core.slot_key, float array) Hashtbl.t = Hashtbl.create 32 in
  let finish_of : (int, float array) Hashtbl.t = Hashtbl.create 32 in
  let finishes (op : Alg.op_id) = table finish_of (op :> int) in
  let overruns = ref 0 in
  (* remember each read slot so phase 3 can name the consumer *)
  let slot_of_key : (Core.slot_key, Sched.comm_slot) Hashtbl.t = Hashtbl.create 32 in
  (* phase 1: operators fire every instruction at its static offset
     (or as soon as the previous one finishes, when running late) *)
  List.iter
    (fun (operator, body) ->
      let operator = Arch.operator_name sched.Sched.architecture operator in
      let time = ref 0. in
      for k = 0 to config.iterations - 1 do
        let base = float_of_int k *. period in
        List.iter
          (fun instr ->
            match instr with
            | Cg.Wait_period ->
                if !time > base +. 1e-9 then incr overruns;
                time := Float.max !time base
            | Cg.Exec op ->
                let slot = Sched.slot_of sched op in
                let start = Float.max !time (base +. slot.Sched.cs_start) in
                let skipped = Core.skipped core ~iteration:k op in
                let failed = Core.failed core ~operator ~time:start in
                let duration =
                  if skipped || failed then 0. else Core.exec_duration core ~iteration:k op
                in
                time := start +. duration;
                if not failed then (finishes op).(k) <- !time
            | Cg.Send c ->
                (* a fail-stopped producer posts nothing: the table's
                   bus slot departs carrying the old value *)
                if not (Core.failed core ~operator ~time:!time) then
                  (table posted (Core.slot_key c)).(k) <- !time
            | Cg.Recv c ->
                (* time-triggered read at the planned read offset —
                   completion plus any slack the schedule inserted for
                   retransmissions (Schedule.insert_slack) *)
                let planned = base +. c.Sched.cm_read in
                let t_read = Float.max !time planned in
                time := t_read;
                Hashtbl.replace slot_of_key (Core.slot_key c) c;
                (table read_at (Core.slot_key c)).(k) <- t_read)
          body
      done)
    exe.Cg.programs;
  (* phase 2: the media are time-triggered too — every transfer slot
     fires at its planned offset (or as soon as the medium frees up),
     in the static order.  Data that has not been posted by departure
     misses its slot: the fresh value only travels next period, which
     the freshness check reports as a stale read. *)
  let arrival : (Core.slot_key, float array) Hashtbl.t = Hashtbl.create 32 in
  let clock = Array.make (Arch.medium_count sched.Sched.architecture) 0. in
  (* all transfer instances in global planned-start order, so a hop's
     predecessor (always planned earlier) is processed first *)
  let instances =
    List.concat_map
      (fun (_, transfers) ->
        List.concat_map
          (fun c ->
            List.init config.iterations (fun k ->
                ((float_of_int k *. period) +. c.Sched.cm_start, c, k)))
          transfers)
      exe.Cg.media_programs
    |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  in
  List.iter
    (fun (planned_start, c, k) ->
      let m = (c.Sched.cm_medium :> int) in
      let bus = Core.bus core c.Sched.cm_medium in
      let release = Float.max clock.(m) planned_start in
      (* with a bus model, the slot's frame is enqueued at its planned
         offset and arbitrates against the bus's other traffic; without
         one the slot occupies its planned duration *)
      let start, t_done0, bus_dropped =
        match bus with
        | None -> (release, release +. c.Sched.cm_duration, false)
        | Some b ->
            let node = (c.Sched.cm_from :> int) in
            let duration = Core.comm_duration core c.Sched.cm_duration in
            if Media.Bus.node_off b ~node ~time:release then
              (* a bus-off interface posts nothing and occupies no bus *)
              (release, release, true)
            else
              let comp =
                Media.Bus.transmit b ~ident:(Media.Bus.slot_identifier c) ~node ~release
                  ~duration
              in
              (comp.Media.Bus.c_start, comp.Media.Bus.c_finish, comp.Media.Bus.c_dropped)
      in
      let ready =
        if c.Sched.cm_hop = 0 then (table posted (Core.slot_key c)).(k)
        else (table arrival (Core.prev_key c)).(k)
      in
      let data_ready = (not (Float.is_nan ready)) && ready <= start +. 1e-12 in
      let medium = Arch.medium_name sched.Sched.architecture c.Sched.cm_medium in
      let dropped = Core.dropped core ~medium ~iteration:k ~time:start c in
      (* the slot is consumed whether or not fresh data made it; a
         retry extends it past its planned end and pushes the table's
         later transfers on this medium back — recovery can itself
         cause overruns *)
      let delivered, t_done, attempts =
        if bus_dropped then begin
          Core.lose core;
          (false, t_done0, 0)
        end
        else if dropped then
          Core.recover core ~retry:data_ready ~bus ~medium ~iteration:k ~finish:t_done0
            ~duration:(fun () -> c.Sched.cm_duration)
            c
        else (true, t_done0, 0)
      in
      clock.(m) <- t_done;
      if delivered && data_ready then
        (table arrival (Core.slot_key c)).(k) <-
          (match bus with
          | Some _ ->
              (* bus timing already includes the jittered frame time *)
              t_done
          | None ->
              if attempts > 0 then t_done
              else
                (* same rng draw as the recovery-free path, so disabling
                   recovery replays the seed's stream exactly *)
                start +. Core.comm_duration core c.Sched.cm_duration))
    instances;
  (* phase 3: freshness — iteration k's read is stale when iteration
     k's transfer had not arrived yet *)
  let violations = ref 0 and remote = ref 0 in
  Hashtbl.iter
    (fun key reads ->
      let arrivals = table arrival key in
      Array.iteri
        (fun k t_read ->
          if not (Float.is_nan t_read) then begin
            incr remote;
            let t_arrive = arrivals.(k) in
            if Float.is_nan t_arrive || t_arrive > t_read +. 1e-12 then begin
              incr violations;
              if config.recovery.Recovery.freshness_watchdog then
                match Hashtbl.find_opt slot_of_key key with
                | Some c ->
                    let op = Alg.op_name alg (fst c.Sched.cm_dst) in
                    Core.record core (Recovery.Stale_detected { time = t_read; iteration = k; op })
                | None -> ()
            end
          end)
        reads)
    read_at;
  let actuation_latencies =
    List.map
      (fun op ->
        let f = finishes op in
        (op, Array.mapi (fun k t -> t -. (float_of_int k *. period)) f))
      (Alg.actuators alg)
  in
  {
    period;
    iterations = config.iterations;
    violations = !violations;
    remote_consumptions = !remote;
    actuation_latencies;
    overruns = !overruns;
    lost_transfers = Core.lost_transfers core;
    retransmissions = Core.retransmissions core;
    recovered_transfers = Core.recovered_transfers core;
    (* sorted: the freshness sweep above enumerates in hash order *)
    recovery_events = Core.events core;
    bus_log = Core.bus_log core;
  }
