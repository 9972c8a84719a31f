(** Execution of a generated executive on a simulated distributed
    machine.

    Each operator runs its {!Aaa.Codegen} program as a sequential
    process; each medium carries its transfers in the generated static
    order.  Synchronisation follows the executive's semantics: a
    transfer starts once its data is posted and the medium is free, a
    [Recv] blocks until its transfer completes, and a [Wait_period]
    blocks until the iteration's periodic release.  Actual operation
    durations are drawn from a {!Timing_law} within [\[BCET, WCET\]],
    and conditioned operations are skipped when their condition does
    not hold — the two mechanisms that make real I/O instants differ
    from the stroboscopic model.  Duration sampling, bus models and
    retransmission are {!Core}'s, shared with {!Async}; this executive
    adds the blocking synchronised reads.

    The simulation doubles as an empirical deadlock-freedom check: if
    no entity can progress before completing the requested iterations,
    {!Deadlock} is raised with a description of who waits on what. *)

exception Deadlock of string

type config = Core.config = {
  iterations : int;  (** number of periods to execute *)
  law : Timing_law.t;  (** computation-duration law *)
  comm_jitter_frac : float;
      (** transfers take [uniform(\[1−f, 1\])·planned] time; [0.] replays
          the planned duration exactly *)
  bcet_frac : float;
      (** fallback BCET as a fraction of the planned WCET when no
          durations table is supplied *)
  durations : Aaa.Durations.t option;
      (** BCET lookup (per operation and operator) when available *)
  overrun_prob : float;
      (** probability that an execution {e exceeds} its WCET (a faulty
          characterisation or an unmodelled interference) *)
  overrun_factor : float;
      (** duration multiplier applied on an overrun (> 1) *)
  seed : int;  (** RNG seed — runs are reproducible *)
  condition : iteration:int -> var:string -> int;
      (** run-time value of each conditioning variable *)
  injection : Injection.t;
      (** structural faults (fail-stop, outages, message loss,
          overrun bursts) — see {!Injection}.  A lost transfer still
          consumes its slot and unblocks its [Recv] at the normal
          completion instant, but the consumer reads the {e previous}
          iteration's value: the trace counts it in [stale_reads]
          rather than deadlocking.  A dead operator's program runs
          instantly, posting frozen (stale) values. *)
  recovery : Recovery.policy;
      (** online detection & recovery — see {!Recovery}.  With
          {!Recovery.disabled} (the default) the executive behaves
          exactly as before: faults stay silent in the counters. *)
  bus_models : (string * Media.Bus.config) list;
      (** shared-bus network models, keyed by medium name.  A listed
          medium's transfers become frames on a fresh {!Media.Bus.t}
          (one per run; a failover run's phases each get their own, in
          their own frame): the completion instant comes from CAN-like
          arbitration against the bus's background traffic, corrupted
          frames consume bus time and retry up to the bus's limit
          before the payload goes stale, and a bus-off source loses its
          frames without occupying the bus.  Recovery retransmissions
          re-arbitrate like any other frame.  With the default [\[\]]
          every transfer keeps its fixed planned duration, bit-for-bit.
          Raises [Invalid_argument] (["[MEDIA004]"]) when a name
          matches no medium or a point-to-point one. *)
}
(** The one configuration of both executives: {!Async.run} takes it
    too, so a comparison runs both on the same timing model. *)

val default_config : config
(** 100 iterations, {!Timing_law.Uniform}, no comm jitter,
    [bcet_frac = 0.5], no durations table, no overruns
    ([overrun_prob = 0.], [overrun_factor = 1.5]), seed 42, all
    conditions = 0, no injected faults, recovery disabled, no bus
    models. *)

type op_exec = {
  oe_iteration : int;
  oe_op : Aaa.Algorithm.op_id;
  oe_operator : Aaa.Architecture.operator_id;
  oe_start : float;
  oe_finish : float;
  oe_skipped : bool;  (** condition did not hold: no execution *)
  oe_failed : bool;  (** operator was fail-stopped: no execution *)
}

type comm_exec = {
  ce_iteration : int;
  ce_slot : Aaa.Schedule.comm_slot;
  ce_start : float;
  ce_finish : float;
}

type trace = {
  executive : Aaa.Codegen.t;
  period : float;
  iterations : int;
  ops : op_exec list;  (** chronological *)
  comms : comm_exec list;  (** chronological *)
  iteration_end : float array;
      (** per iteration, the last finish over all operators *)
  overruns : int;
      (** iterations still running past their next release *)
  lost_transfers : int;
      (** transfer instances whose payload went stale under the
          injection (counted once per instance, at the first loss
          along its hop chain) *)
  stale_reads : int;
      (** [Recv]s that consumed a previous-iteration value — the
          freshness violations of the injected run *)
  retransmissions : int;
      (** retry attempts spent by the recovery policy (whole run) *)
  recovered_transfers : int;
      (** dropped transfers whose payload a retransmission saved *)
  recovery_events : Recovery.event list;
      (** dated detection / recovery observations, chronological under
          {!Recovery.compare_event}; whole-run (absolute time) at the
          top level *)
  detection_latency : float option;
      (** [confirm_time − fail_time] when the heartbeat supervisor
          confirmed a fail-stop *)
  switched_at : int option;
      (** iteration index at which the mode switch took effect *)
  bus_log : (string * Media.Bus.completion list) list;
      (** per modeled bus, every frame completion (executive transfers
          and background traffic) in chronological order, drained to
          the run horizon — empty without [bus_models].  After a mode
          switch this is the nominal phase's log; the failover phase's
          log lives in its [continuation]. *)
  continuation : trace option;
      (** after a mode switch, the failover phase as its own trace {e in
          its own frame}: its executive is the failover one (renumbered
          operators), its times are relative to the switch instant and
          its iterations count from 0.  The accessor functions below
          stitch through it; the top-level counters already include
          it. *)
}

val run : ?config:config -> Aaa.Codegen.t -> trace
(** Executes the executive.  Raises {!Deadlock} (never happens for
    executives generated from valid schedules — tests rely on this),
    or [Invalid_argument] on a non-positive iteration count.

    With a {!Recovery} policy whose heartbeat supervisor confirms a
    fail-stop and whose [failover] table holds an executive for the
    dead operator, the run switches to that executive at
    {!Recovery.switch_iteration}: the trace carries [switched_at], the
    failover phase as [continuation], and the whole-run counters.  The
    failover phase sees the same injection, condition stream and seed,
    re-expressed in its frame — the two-phase run is bit-for-bit
    reproducible. *)

(** {2 Latency extraction (paper §2, eqs. (1)–(2))} *)

val instants : trace -> Aaa.Algorithm.op_id -> float array
(** Completion instants of one operation across iterations ([nan] at
    iterations where it was skipped or its operator had failed),
    stitched in absolute time across a mode switch. *)

val sampling_latencies : trace -> (Aaa.Algorithm.op_id * float array) list
(** For each sensor [j], the per-iteration sampling latency
    [Ls_j(k) = I_j(k) − k·Ts]. *)

val actuation_latencies : trace -> (Aaa.Algorithm.op_id * float array) list
(** For each actuator [j], [La_j(k) = O_j(k) − k·Ts]. *)

val fresh_actuations : trace -> bool array
(** Per-iteration freshness of the actuated outputs: [true] at release
    [k] iff every actuator completed (not skipped, operator alive) and
    the freshness watchdog dated no stale read during iteration [k].
    The evidence stream {!Standby}'s output voter consumes. *)

val utilization : trace -> (Aaa.Architecture.operator_id * float) list
(** Per-operator utilisation: busy time (non-skipped executions) over
    the total simulated time — the architecture-sizing metric.  After
    a mode switch, busy time is merged by operator {e name} (the
    failover architecture renumbers operators), keyed by the nominal
    architecture's ids. *)

val latencies_csv : trace -> string
(** CSV table of the per-iteration latencies: one row per iteration,
    one [Ls_<op>] column per sensor and one [La_<op>] column per
    actuator ([nan] where skipped) — for plotting Fig.-1-style series
    outside OCaml. *)

val order_conformant : trace -> bool
(** Checks the run respected the schedule's total orders: on every
    operator (and medium), executions happened in the scheduled
    sequence without overlap.  Always true for generated executives —
    exercised by the test suite as the paper's order-guarantee
    property.  After a mode switch, each phase is checked against its
    own executive's schedule. *)
