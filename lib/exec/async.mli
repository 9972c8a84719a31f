(** Baseline executor: a {e time-triggered table without
    synchronisation}, the classic alternative to SynDEx's synchronised
    executive (a TTP/FlexRay-style static table).

    It shares {!Core} with {!Machine} — configuration, duration
    sampling, bus models, retransmission — and differs only in when
    things happen and which value a read sees:
    - every operation starts at its static schedule offset within the
      period, or as soon as the previous one finishes when running
      late;
    - every transfer slot departs at its planned offset (or once its
      medium frees up), in global planned-start order; a bus model's
      frame is enqueued at that offset.  A payload not posted by
      departure misses the slot and travels next period;
    - every read samples its buffer at the planned read offset
      ([cm_read], which {!Aaa.Schedule.insert_slack} may move later to
      reserve a retransmission window), never blocking.

    Under the WCET contract this is correct.  When an execution
    overruns, a transfer is lost or a bus arbitration runs late, the
    consumer silently uses the {e previous} iteration's value where
    {!Machine} blocks and stays coherent: {!run} counts these
    {e freshness violations} (the [baseline] experiment of
    EXPERIMENTS.md).  A fail-stopped producer posts nothing; a
    retransmitted payload typically lands after this period's read, so
    the transfer counts as recovered while the read stays a dated
    violation.  The heartbeat supervisor and mode switch are
    {!Machine}-only: a static table cannot re-dispatch online, so the
    policy's [failover] table is ignored. *)

type trace = {
  period : float;
  iterations : int;
  violations : int;  (** stale-data reads *)
  remote_consumptions : int;  (** total remote reads checked *)
  actuation_latencies : (Aaa.Algorithm.op_id * float array) list;
      (** per actuator, per iteration [La(k)] — comparable to
          {!Machine.actuation_latencies}; [nan] where the actuator's
          operator had fail-stopped *)
  overruns : int;  (** iterations whose work spilled past the release *)
  lost_transfers : int;
      (** transfer instances dropped on the wire (or by the bus) that
          no retry saved *)
  retransmissions : int;  (** retry attempts spent by the recovery policy *)
  recovered_transfers : int;  (** dropped transfers a retransmission saved *)
  recovery_events : Recovery.event list;
      (** dated {!Recovery.Stale_detected} / retransmission events,
          sorted under {!Recovery.compare_event} *)
  bus_log : (string * Media.Bus.completion list) list;
      (** per modeled bus, every frame completion in chronological
          order, drained to the run horizon — empty without
          [bus_models] *)
}

val run : ?config:Machine.config -> Aaa.Codegen.t -> trace
(** Executes the time-triggered table.  Never deadlocks (nothing
    blocks).  Raises [Invalid_argument] like {!Machine.run}. *)
