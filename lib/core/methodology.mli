(** The design-lifecycle methodology, end to end (paper §1):

    {v
      design (Scicos)                    — Design.t
        → ideal simulation              — simulate_ideal
        → extraction (Scicos→SynDEx)    — extract
        → adequation + code generation  — implement
        → temporal model                — implementation.static
        → graph of delays co-simulation — simulate_implemented
        → comparison / calibration      — evaluate, Calibrate
    v}

    The point of the methodology — and of this module — is that the
    implemented behaviour is evaluated by {e simulation at design
    time}, before any code runs on a target, cutting the
    design/implementation/calibration iterations of the traditional
    lifecycle. *)

type implementation = {
  built : Design.built;  (** the diagram instance used for extraction *)
  algorithm : Aaa.Algorithm.t;
  binding : Translator.Scicos_to_syndex.binding;
  schedule : Aaa.Schedule.t;
  executive : Aaa.Codegen.t;
  static : Translator.Temporal_model.static;
}

val engine_with_probes : ?meth:Numerics.Ode.method_ -> Design.built -> Sim.Engine.t
(** Compiles the built diagram and attaches every probe the design
    declares — the engine every co-simulation of a design runs on. *)

val simulate_ideal : ?meth:Numerics.Ode.method_ -> Design.t -> Sim.Engine.t
(** Builds the diagram, attaches the stroboscopic clock, runs to the
    design's horizon and returns the engine (probes recorded, costs
    computable). *)

val extract : Design.t -> Design.built * Aaa.Algorithm.t * Translator.Scicos_to_syndex.binding
(** Scicos→SynDEx translation of the design's control law, with the
    design's conditioning hook applied. *)

val implement :
  ?strategy:Aaa.Adequation.strategy ->
  ?pins:(string * string) list ->
  design:Design.t ->
  architecture:Aaa.Architecture.t ->
  durations:Aaa.Durations.t ->
  unit ->
  implementation
(** Extraction, adequation, executive generation and static temporal
    model in one step.  Raises {!Aaa.Adequation.Infeasible} when the
    mapping is impossible. *)

val simulate_implemented :
  ?meth:Numerics.Ode.method_ ->
  ?mode:Translator.Delay_graph.mode ->
  ?comm_jitter_frac:float ->
  Design.t ->
  implementation ->
  Sim.Engine.t
(** Fresh diagram + graph of delays generated from the
    implementation's schedule, simulated to the horizon.  The control
    law blocks are identical to the ideal simulation; only the
    activation events differ (paper Fig. 3). *)

val execute :
  ?config:Exec.Machine.config -> Design.t -> implementation -> Exec.Machine.trace
(** Runs the generated executive on the simulated distributed machine
    (using the design's run-time condition values when present) —
    the measured counterpart of the static temporal model. *)

val conditions_from_ideal :
  ?meth:Numerics.Ode.method_ ->
  iterations:int ->
  Design.t ->
  implementation ->
  iteration:int ->
  var:string ->
  int
(** Derives a run-time condition profile for {!execute} from the
    {e ideal} co-simulation: the design's condition-feed signals are
    probed, the ideal loop is simulated for [iterations] periods, and
    each variable's value at the start of period [k] becomes the
    condition for machine iteration [k] — so the executive's branches
    follow the same mode trajectory the control engineer simulated.
    Unknown variables and out-of-range iterations return 0.  Raises
    [Invalid_argument] when the design declares no condition feed. *)

type comparison = {
  implementation : implementation;
  ideal_cost : float;
  implemented_cost : float;
  degradation_pct : float;  (** cost increase of the implementation *)
}

val evaluate :
  ?meth:Numerics.Ode.method_ ->
  ?mode:Translator.Delay_graph.mode ->
  ?strategy:Aaa.Adequation.strategy ->
  ?pins:(string * string) list ->
  design:Design.t ->
  architecture:Aaa.Architecture.t ->
  durations:Aaa.Durations.t ->
  unit ->
  comparison
(** The full loop: ideal cost vs implemented cost on one
    architecture. *)
