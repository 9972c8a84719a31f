(** The executive core shared by the two executives, {!Machine} (blocking
    synchronised reads) and {!Async} (reads at planned table offsets).

    One value of {!t} is the state of one run: the configuration, the
    seeded duration draws, the attached bus models, the retransmission
    budget and the recovery ledger.  The executives keep only what differs
    in the temporal model — when an instruction may fire and which value
    a read sees — and draw from the core's generator in their own
    order, which the traces depend on bit for bit. *)

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
(** Documented as {!Machine.config}. *)

val default_config : config

type slot_key = int * int * int * int * int
(** One hop of a transfer: producer (operation, port), consumer
    (operation, port), hop index. *)

val slot_key : Aaa.Schedule.comm_slot -> slot_key

val prev_key : Aaa.Schedule.comm_slot -> slot_key
(** The hop before this one on the transfer's route. *)

type t

val create : who:string -> config -> Aaa.Codegen.t -> t
(** Validates the iteration count and attaches one fresh
    {!Media.Bus.t} per entry of [bus_models].  Raises [Invalid_argument]
    naming [who] on a non-positive iteration count, and with a
    ["[MEDIA004]"] prefix when a bus model names no medium or a
    point-to-point one. *)

val row : t -> ('k, 'a array) Hashtbl.t -> 'k -> 'a -> 'a array
(** [row t table key fill]: the per-iteration array stored under [key],
    created filled with [fill] on first use. *)

val bus : t -> Aaa.Architecture.medium_id -> Media.Bus.t option
val has_buses : t -> bool

val skipped : t -> iteration:int -> Aaa.Algorithm.op_id -> bool
(** The operation's condition does not hold at this iteration. *)

val failed : t -> operator:string -> time:float -> bool
(** The injection has fail-stopped [operator] by [time]. *)

val dropped : t -> medium:string -> iteration:int -> time:float -> Aaa.Schedule.comm_slot -> bool
(** The injection loses this transfer: its medium is down at [time] or
    the transfer itself is lost. *)

val exec_duration : t -> iteration:int -> Aaa.Algorithm.op_id -> float
(** One execution: a {!Timing_law} draw within [\[BCET, WCET\]] (WCET
    from the schedule slot, BCET from the durations table when given,
    else [bcet_frac·WCET]), times [overrun_factor] on a random overrun,
    times the injection's overrun factor. *)

val comm_duration : t -> float -> float
(** A planned transfer time with [comm_jitter_frac] jitter applied. *)

val lose : t -> unit
(** Counts one lost transfer instance. *)

val recover :
  t ->
  retry:bool ->
  bus:Media.Bus.t option ->
  medium:string ->
  iteration:int ->
  finish:float ->
  duration:(unit -> float) ->
  Aaa.Schedule.comm_slot ->
  bool * float * int
(** A transfer the injection dropped, ending at [finish].  When [retry]
    holds and the policy retransmits, it is retried with exponential
    backoff within the per-medium per-period budget; each attempt lasts
    [duration ()] and re-arbitrates on [bus].  The outcome is dated as a
    {!Recovery} event and counted as recovered or lost.  Returns
    (delivered, new finish, attempts). *)

val record : t -> Recovery.event -> unit

val lost_transfers : t -> int
val retransmissions : t -> int
val recovered_transfers : t -> int

val events : t -> Recovery.event list
(** Recorded events under {!Recovery.compare_event}. *)

val bus_log : t -> (string * Media.Bus.completion list) list
(** Drains every attached bus to the run horizon and returns its log. *)
