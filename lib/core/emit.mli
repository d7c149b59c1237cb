(** JSON emitters for every experiment record.

    One function per record type of {!Experiments}, {!Sim},
    {!Attribution}, and {!Blame}, plus the workload catalog and the
    compiler report — the machine-readable counterparts of the [render_*]
    text tables, used by the CLI's [--json] mode and the benchmark
    harness.  Schemas are flat and self-describing; the test suite
    round-trips each one through {!Fs_obs.Json.of_string}. *)

module Json = Fs_obs.Json

val counts : Fs_cache.Mpcache.counts -> Json.t

val fig3 : Experiments.fig3_row list -> Json.t
val table2 : Experiments.table2_row list -> Json.t
val series : Experiments.series list -> Json.t
val table3 : Experiments.table3_row list -> Json.t
val stats : Experiments.stats -> Json.t
val exec : Experiments.exec_row list -> Json.t

val sim :
  workload:string ->
  nprocs:int ->
  block:int ->
  (string * Sim.cache_run) list ->
  Json.t
(** One entry per simulated version (name, run). *)

val attribution : Attribution.row list -> Json.t
val blame : Blame.t -> Json.t

val phases : Phases.t -> Json.t
(** Per-epoch totals and per-processor counters, the write-sharing
    observed in each epoch, and any static cross-check violations. *)

val hotlines : Hotlines.t -> Json.t
(** Ranked hot lines with their lifetime stats, verdicts, and fixes. *)

val workloads : Fs_workloads.Workload.t list -> Json.t

val transform_report : Fs_transform.Transform.report -> Json.t
(** Entries with their decisions and reasons, plus the plan actions
    (pretty-printed). *)
