(** One-call simulation drivers tying the pipeline together:
    program -> plan -> layout -> interpreter -> cache / timing model.

    Since the interpreter's schedule is layout-free, interpretation and
    simulation are decoupled: {!record} interprets once, and every
    replay-side analysis takes that [~recorded] execution and replays it
    under its layout instead of re-interpreting.  Every cache replay runs
    on the paper's Section 4 geometry ({!Fs_cache.Mpcache.default_config})
    through {!replay}. *)

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

val replay :
  ?track_blocks:bool ->
  ?track_pairs:bool ->
  ?track_lines:bool ->
  ?flight:Fs_replay.Flight.t ->
  recorded ->
  Fs_layout.Layout.t ->
  nprocs:int ->
  Fs_cache.Mpcache.t * Fs_replay.Replay.run
(** Replay [recorded] under an already realized layout into a fresh
    cache of the Section 4 geometry (32 KB 4-way L1 per processor,
    infinite L2) at the layout's block size, and return the cache with
    the run.  The tracking flags are {!Fs_cache.Mpcache.create}'s, and
    [flight] attaches a {!Fs_replay.Flight} recorder to the replay loop.
    [recorded] must come from the program the layout was realized for,
    at [nprocs]. *)

type cache_run = {
  counts : Fs_cache.Mpcache.counts;
  per_block : (int * Fs_cache.Mpcache.counts) list;
      (** populated when [track_blocks] *)
  layout_bytes : int;
  interp : Fs_interp.Interp.result;
}

val cache_sim :
  ?track_blocks:bool ->
  ?flight:Fs_replay.Flight.t ->
  recorded:recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  cache_run
(** Realize [plan] at [block] and {!replay} [recorded] under it.
    [recorded] must come from the same program at the same [nprocs];
    [track_blocks] fills [per_block]. *)

type timed_run = {
  machine : Fs_machine.Ksr.result;
  work : int array;
}

val machine_sim :
  recorded:recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  timed_run
(** Execution-time run of [recorded] on the KSR2 model
    ({!Fs_machine.Ksr.default_config}, 128-byte blocks). *)

val compiler_plan : Fs_ir.Ast.program -> nprocs:int -> Fs_layout.Plan.t
(** The compiler path: analyze and choose transformations with
    {!Fs_transform.Transform.default_options}. *)
