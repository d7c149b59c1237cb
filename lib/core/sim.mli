(** One-call simulation drivers tying the pipeline together:
    program -> plan -> layout -> interpreter -> cache / timing model.

    Since the interpreter's schedule is layout-free, interpretation and
    simulation are decoupled: {!record} interprets once, and both
    {!cache_sim} and {!machine_sim} accept the [?recorded] execution to
    replay under their layout instead of re-interpreting.  Without
    [?recorded] each call records a fresh (identical) execution. *)

type recorded = {
  trace : Fs_trace.Cell_trace.t;
  interp : Fs_interp.Interp.result;
}

val record :
  ?max_steps:int ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  recorded
(** Interpret once, layout-free.  [sched] seeds the work-stealing
    runtime and is required for programs that use [spawn]/[sync]. *)

type cache_run = {
  counts : Fs_cache.Mpcache.counts;
  per_block : (int * Fs_cache.Mpcache.counts) list;
      (** populated when [track_blocks] *)
  layout_bytes : int;
  interp : Fs_interp.Interp.result;
}

val cache_sim :
  ?cache_bytes:int ->
  ?assoc:int ->
  ?track_blocks:bool ->
  ?flight:Fs_replay.Flight.t ->
  ?sched:Fs_sched.Sched.config ->
  ?recorded:recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  cache_run
(** Trace-driven simulation of the paper's Section 4 architecture
    (32 KB 4-way L1 per processor unless overridden, infinite L2).
    [recorded] must come from the same program at the same [nprocs].
    Every run goes through {!Fs_replay.Replay.simulate};
    [track_blocks] fills [per_block], and [flight] attaches a
    {!Fs_replay.Flight} recorder to the replay loop. *)

type timed_run = {
  machine : Fs_machine.Ksr.result;
  work : int array;
}

val machine_sim :
  ?config:Fs_machine.Ksr.config ->
  ?sched:Fs_sched.Sched.config ->
  ?recorded:recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  timed_run
(** Execution-time run on the KSR2 model (128-byte blocks). *)

val compiler_plan :
  ?options:Fs_transform.Transform.options ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  Fs_layout.Plan.t
(** The compiler path: analyze and choose transformations. *)
