(** The feedback experiment: N / C / P / F across the whole suite.

    Extends the paper's three-version comparison (not optimized, compiler
    optimized, programmer optimized) with a fourth column F — the compiler
    plan refined by the profile-guided repair loop of {!Repair} — and,
    where a programmer plan exists, F(P), the programmer plan refined the
    same way.  F(P) is where the loop repairs the programmers' documented
    layout mistakes: the hand plans that forgot to pad locks get
    [Pad_locks] back from the dynamic diagnosis.

    This driver lives in [fs_feedback] rather than
    [Falseshare.Experiments] because the repair engine consumes the
    hot-line forensics of the core library — the dependency points this
    way. *)

type cell = {
  accesses : int;
  misses : int;
  false_sharing : int;
}

type refined = {
  rcell : cell;              (** counts under the refined plan *)
  iters : int;               (** repairs the accept gate admitted *)
  stop : Repair.stop;
  repairs : string list;     (** labels of the applied candidates *)
}

type row = {
  name : string;
  procs : int;
  block : int;
  unopt : cell;
  compiler : cell;
  feedback : refined;              (** F: refine the compiler plan *)
  programmer : cell option;        (** None when the paper has no P *)
  feedback_p : refined option;     (** F(P): refine the programmer plan *)
  locks_repaired : bool;
      (** the programmer plan omitted [Pad_locks] and F(P) restored it *)
}

val table :
  ?blocks:int list ->
  ?scale_override:int ->
  ?jobs:int ->
  unit ->
  row list
(** All ten workloads at their Figure 3 processor counts, one row per
    (workload, block); [blocks] defaults to [[16; 128]].  Traces come from
    the process-wide memo, rows are produced on the parallel pool, and the
    result is deterministic in input order.  Every refinement runs with
    {!Repair.default_options}. *)

val render : row list -> string

val to_json : row list -> Fs_obs.Json.t

(** {1 The stealing table}

    N / C / F over the dynamic (task-parallel) workload family, run on
    the seeded work-stealing scheduler.  The compiler plan is produced
    from the AST, which shows neither the scheduler's deque traffic nor
    which process a stolen task's writes land on, so C leaves residual
    false sharing; the repair loop removes it from the profile —
    including padding the scheduler's own [__sched_top]/[__sched_bot]
    index arrays. *)

type steal_row = {
  sname : string;
  sprocs : int;
  sblock : int;
  sseed : int;       (** the scheduler seed the whole row ran under *)
  stasks : int;      (** tasks spawned (0 for a disk-loaded trace) *)
  ssteals : int;     (** steal events counted in the trace *)
  sunopt : cell;
  scompiler : cell;
  sfeedback : refined;
  deque_fs_c : int;
      (** false-sharing misses on blocks owned by scheduler globals
          under the compiler plan *)
  deque_fs_f : int;  (** the same after repair *)
}

val stealing_table :
  ?blocks:int list ->
  ?seed:int ->
  ?scale_override:int ->
  ?jobs:int ->
  unit ->
  steal_row list
(** One row per (dynamic workload, block); [blocks] defaults to
    [[16; 128]], [seed] to 42; refinements run with
    {!Repair.default_options}.  Deterministic: same seed, same rows. *)

val render_stealing : steal_row list -> string

val stealing_to_json : steal_row list -> Fs_obs.Json.t
