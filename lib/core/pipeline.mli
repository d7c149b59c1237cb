(** One fully instrumented pipeline run.

    Runs every stage — the PDV and non-concurrency analyses, side-effect
    summarization, transformation planning, layout realization, and
    interpretation with cache simulation — each in an ambient
    {!Fs_obs.Span} named after the stage (["pdv"], ["non-concurrency"],
    ["summary"], ["transform"], ["layout"], ["interp"], ["replay+cache"])
    under a ["pipeline"] span, with the stage's event count as an
    ["events"] attribute; and collects a {!Fs_obs.Metrics} registry holding
    the interpreter's work and synchronization counters and the cache's
    per-processor miss, invalidation, and upgrade counts.

    The compiler runs with {!Fs_transform.Transform.default_options}.
    The cache replays the recording through {!Sim.replay} with per-block
    tracking.  The [interp_*] counters are not counted per event:
    accesses come from the cache's per-processor counts (so they include
    the pointer loads an indirection layout injects), the rest from one
    pass over the recording's non-access events.  They are exactly the
    series {!Fs_obs.Metrics.listener} registers on a listener replay of
    the same recording under the same layout (tested). *)

type t = {
  report : Fs_transform.Transform.report;
  cache : Sim.cache_run;
  metrics : Fs_obs.Metrics.t;
}

val run :
  ?plan:Fs_layout.Plan.t ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  block:int ->
  t
(** [plan] overrides the compiler's plan for the simulated layout (the
    compiler analysis still runs and is timed); by default the
    compiler's own plan is simulated.  [sched] seeds the work-stealing
    runtime; required for programs using [spawn]/[sync]. *)
