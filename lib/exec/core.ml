module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Sched = Aaa.Schedule
module Cg = Aaa.Codegen

type config = {
  iterations : int;
  law : Timing_law.t;
  comm_jitter_frac : float;
  bcet_frac : float;
  durations : Aaa.Durations.t option;
  overrun_prob : float;
  overrun_factor : float;
  seed : int;
  condition : iteration:int -> var:string -> int;
  injection : Injection.t;
  recovery : Recovery.policy;
  bus_models : (string * Media.Bus.config) list;
}

let default_config =
  {
    iterations = 100;
    law = Timing_law.Uniform;
    comm_jitter_frac = 0.;
    bcet_frac = 0.5;
    durations = None;
    overrun_prob = 0.;
    overrun_factor = 1.5;
    seed = 42;
    condition = (fun ~iteration:_ ~var:_ -> 0);
    injection = Injection.none;
    recovery = Recovery.disabled;
    bus_models = [];
  }

type slot_key = int * int * int * int * int

let slot_key (c : Sched.comm_slot) =
  ( (fst c.Sched.cm_src :> int),
    snd c.Sched.cm_src,
    (fst c.Sched.cm_dst :> int),
    snd c.Sched.cm_dst,
    c.Sched.cm_hop )

let prev_key c =
  let a, b, d, e, hop = slot_key c in
  (a, b, d, e, hop - 1)

type t = {
  config : config;
  alg : Alg.t;
  arch : Arch.t;
  period : float;
  rng : Numerics.Rng.t;
  faulty : bool;  (** a non-empty injection *)
  retransmits : bool;
  buses : Media.Bus.t option array;  (** by medium id; empty without models *)
  wcet : float array;  (** by operation id *)
  bcet : float array;
  retry_used : (int * int, int) Hashtbl.t;
      (** retransmissions already spent, per medium and iteration *)
  mutable lost_transfers : int;
  mutable retransmissions : int;
  mutable recovered_transfers : int;
  mutable events : Recovery.event list;
}

let create ~who config exe =
  if config.iterations <= 0 then invalid_arg (who ^ ": non-positive iteration count");
  let sched = exe.Cg.schedule in
  let alg = sched.Sched.algorithm in
  let arch = sched.Sched.architecture in
  let rng = Numerics.Rng.create config.seed in
  let buses =
    if config.bus_models = [] then [||]
    else begin
      let arr = Array.make (Arch.medium_count arch) None in
      List.iter
        (fun (bname, bcfg) ->
          match Arch.find_medium arch bname with
          | None ->
              invalid_arg
                (Printf.sprintf "[MEDIA004] %s: bus model %S names no medium of architecture %S"
                   who bname (Arch.name arch))
          | Some mid ->
              if Arch.medium_kind arch mid <> Arch.Bus then
                invalid_arg
                  (Printf.sprintf "[MEDIA004] %s: medium %S is not a shared bus" who bname);
              arr.((mid :> int)) <- Some (Media.Bus.create bcfg))
        config.bus_models;
      arr
    end
  in
  (* every operation has exactly one slot, on the operator whose
     program executes it *)
  let wcet = Array.make (Alg.op_count alg) 0. in
  let bcet = Array.make (Alg.op_count alg) 0. in
  List.iter
    (fun (s : Sched.comp_slot) ->
      let w = s.Sched.cs_duration in
      let from_table =
        Option.bind config.durations (fun table ->
            Aaa.Durations.bcet table ~op:(Alg.op_name alg s.Sched.cs_op)
              ~operator:(Arch.operator_name arch s.Sched.cs_operator))
      in
      wcet.((s.Sched.cs_op :> int)) <- w;
      bcet.((s.Sched.cs_op :> int)) <-
        (match from_table with Some b -> Float.min b w | None -> config.bcet_frac *. w))
    sched.Sched.comp;
  let faulty = not (Injection.is_none config.injection) in
  {
    config;
    alg;
    arch;
    period = Alg.period alg;
    rng;
    faulty;
    retransmits = faulty && Recovery.retransmission_enabled config.recovery;
    buses;
    wcet;
    bcet;
    retry_used = Hashtbl.create 8;
    lost_transfers = 0;
    retransmissions = 0;
    recovered_transfers = 0;
    events = [];
  }

let row t table key fill =
  match Hashtbl.find_opt table key with
  | Some a -> a
  | None ->
      let a = Array.make t.config.iterations fill in
      Hashtbl.replace table key a;
      a

let has_buses t = Array.length t.buses > 0
let bus t (mid : Arch.medium_id) = if has_buses t then t.buses.((mid :> int)) else None

let skipped t ~iteration op =
  match Alg.op_cond t.alg op with
  | None -> false
  | Some { Alg.var; value } -> t.config.condition ~iteration ~var <> value

let failed t ~operator ~time =
  t.faulty && t.config.injection.Injection.operator_failed ~operator ~time

let dropped t ~medium ~iteration ~time slot =
  let inj = t.config.injection in
  t.faulty
  && (inj.Injection.medium_down ~medium ~time || inj.Injection.transfer_lost ~iteration ~slot)

let exec_duration t ~iteration (op : Alg.op_id) =
  let c = t.config in
  let i = (op :> int) in
  let nominal = Timing_law.sample c.law t.rng ~bcet:t.bcet.(i) ~wcet:t.wcet.(i) in
  let d =
    if c.overrun_prob > 0. && Numerics.Rng.float t.rng 1. < c.overrun_prob then
      nominal *. c.overrun_factor
    else nominal
  in
  match
    if t.faulty then c.injection.Injection.overrun ~iteration ~op:(Alg.op_name t.alg op)
    else None
  with
  | Some factor -> d *. factor
  | None -> d

let comm_duration t planned =
  let f = t.config.comm_jitter_frac in
  if f <= 0. || planned <= 0. then planned
  else Numerics.Rng.uniform t.rng ((1. -. Float.min 1. f) *. planned) planned

let lose t = t.lost_transfers <- t.lost_transfers + 1
let record t e = t.events <- e :: t.events

let recover t ~retry ~bus ~medium ~iteration ~finish ~duration (c : Sched.comm_slot) =
  let pol = t.config.recovery in
  let inj = t.config.injection in
  let finish = ref finish in
  let delivered = ref false in
  let attempts = ref 0 in
  if retry && t.retransmits then begin
    (* bounded retransmission with exponential backoff; every retry
       extends the slot, consuming real medium time, and re-arbitrates
       like any other frame when a bus model is attached *)
    let mkey = ((c.Sched.cm_medium :> int), iteration) in
    let used = ref (Option.value (Hashtbl.find_opt t.retry_used mkey) ~default:0) in
    while
      (not !delivered) && !attempts < pol.Recovery.max_retries
      && !used < pol.Recovery.retry_budget
    do
      incr attempts;
      incr used;
      t.retransmissions <- t.retransmissions + 1;
      let retry_start = !finish +. Recovery.backoff_delay pol ~attempt:!attempts in
      let bus_dropped =
        match bus with
        | None ->
            finish := retry_start +. duration ();
            false
        | Some b ->
            let comp =
              Media.Bus.transmit b ~ident:(Media.Bus.slot_identifier c)
                ~node:(c.Sched.cm_from :> int)
                ~release:retry_start ~duration:(duration ())
            in
            finish := comp.Media.Bus.c_finish;
            comp.Media.Bus.c_dropped
      in
      delivered :=
        not
          (bus_dropped
          || inj.Injection.medium_down ~medium ~time:retry_start
          || inj.Injection.retry_lost ~attempt:!attempts ~iteration ~slot:c)
    done;
    Hashtbl.replace t.retry_used mkey !used;
    record t
      (if !delivered then
         Recovery.Transfer_recovered
           { time = !finish; iteration; medium; attempts = !attempts }
       else
         Recovery.Retries_exhausted { time = !finish; iteration; medium; attempts = !attempts })
  end;
  if !delivered then t.recovered_transfers <- t.recovered_transfers + 1 else lose t;
  (!delivered, !finish, !attempts)

let lost_transfers t = t.lost_transfers
let retransmissions t = t.retransmissions
let recovered_transfers t = t.recovered_transfers
let events t = List.sort Recovery.compare_event t.events

let bus_log t =
  if not (has_buses t) then []
  else begin
    let horizon = float_of_int t.config.iterations *. t.period in
    List.filter_map
      (fun (mid : Arch.medium_id) ->
        match t.buses.((mid :> int)) with
        | None -> None
        | Some b ->
            Media.Bus.drain b ~until:horizon;
            Some (Arch.medium_name t.arch mid, Media.Bus.log b))
      (Arch.media t.arch)
  end
