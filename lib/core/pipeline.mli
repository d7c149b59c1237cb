(** One fully instrumented pipeline run.

    Runs every stage — the PDV and non-concurrency analyses, side-effect
    summarization, transformation planning, layout realization,
    interpretation with cache simulation, and (optionally) the KSR2
    timing model — under a {!Fs_obs.Profile} wall-clock profiler, and
    collects a {!Fs_obs.Metrics} registry holding the interpreter's work
    and synchronization counters, the cache's per-processor miss,
    invalidation, and upgrade counts, and the machine model's stall-cycle
    breakdown (barrier idle vs. lock serialization). *)

type t = {
  report : Fs_transform.Transform.report;
  cache : Sim.cache_run;
  machine : Fs_machine.Ksr.result option;
  epochs : Phases.epoch list option;
      (** barrier-delimited per-epoch counters, when requested *)
  metrics : Fs_obs.Metrics.t;
  profile : Fs_obs.Profile.t;
}

val run :
  ?options:Fs_transform.Transform.options ->
  ?machine:bool ->
  ?epochs:bool ->
  ?plan:Fs_layout.Plan.t ->
  ?profile:Fs_obs.Profile.t ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  block:int ->
  t
(** [machine] (default [false]) also runs the KSR2 model (a second
    interpreter pass).  [epochs] (default [false]) segments the cache
    replay at barrier releases with {!Phases.tracker} and fills in the
    [epochs] field.  [plan] overrides the compiler's plan
    for the simulated layout (the compiler analysis still runs and is
    profiled); by default the compiler's own plan is simulated.
    [profile] lets the caller pre-record phases of its own (e.g.
    parsing) into the same table.  [sched] seeds the work-stealing
    runtime; required for programs using [spawn]/[sync]. *)

val to_json : t -> Fs_obs.Json.t
