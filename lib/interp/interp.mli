(** The SPMD interpreter.

    Runs a ParC program with [nprocs] processes, each executing the entry
    function with [Pdv] bound to its process id, exactly as the fork model
    of Section 2 of the paper: processes are created together, run the same
    code, synchronize at barriers and locks, and share the global data.

    Processes are OCaml effect-handler coroutines scheduled round-robin
    with a small fixed quantum measured in interpreter work units, so the
    emitted reference trace interleaves processor accesses at fine grain —
    the cross-processor interleaving false sharing depends on.  Scheduling
    is fully deterministic.

    Values that are provably ints (literals, [Pdv], [Nprocs], int-only
    private slots and globals, and operators over them) are computed and
    stored unboxed; everything else — floats, parameters, call results —
    keeps the boxed {!Value.t}.  The representation is invisible: a
    program's trace and final memory are the same either way.

    Execution is {e layout-free}: the interpreter names every shared
    reference by its abstract location — (variable id, cell id) — and
    reports it through a {!Fs_trace.Cell_listener}.  Locks are likewise
    identified by cell, so the schedule is a property of the program
    alone and one interpreted execution can be re-laid-out arbitrarily
    often: {!record} captures the stream as a {!Fs_trace.Cell_trace},
    and [Fs_replay.Replay] maps it to byte addresses under each layout.
    Spin waiting on a contended lock is modelled as test-and-test-and-set:
    the initial probe read, then silence while spinning on the locally
    cached copy, then the re-read and the acquiring write when the lock
    is handed over. *)

exception Runtime_error of string
exception Deadlock of string
exception Nontermination of string

type result = {
  work : int array;        (** interpreter work units per processor *)
  accesses : int array;    (** shared-memory references per processor *)
  barrier_episodes : int;  (** completed global barriers *)
  store : (string, Value.t array) Hashtbl.t;  (** final shared memory *)
  sched : Fs_sched.Sched.stats option;
      (** task-runtime counters; [Some] exactly when the program uses
          [spawn]/[sync] and a scheduler config was supplied *)
}

val run_cells :
  ?max_steps:int ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  cells:Fs_trace.Cell_listener.t ->
  result
(** One interpreted execution, events delivered at cell granularity;
    {!record} is the wrapper that captures them.

    A process executes 12 work units between scheduling points (an
    access costs 3 units, other statements 1).  The count is a fixed
    constant, not an option: it shapes the interleaving, and so every
    recorded trace.  [max_steps] (default 400 million) bounds total work.

    [sched] seeds the deterministic work-stealing runtime executing any
    [spawn]/[sync] in the program (see {!Fs_sched.Sched}); running a
    task-parallel program without it is a [Runtime_error] — never a
    silent default, because the seed is part of the experiment's
    identity.  For programs without tasks, [sched] is ignored.

    @raise Runtime_error on dynamic errors (bad index, float index,
      division by zero, unlock of a lock not held, missing return value)
    @raise Deadlock when no process can make progress
    @raise Nontermination when [max_steps] is exceeded *)

val record :
  ?max_steps:int ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  Fs_trace.Cell_trace.t * result
(** Interpret once, capturing the full cell-event stream for later
    replay under any layout.  Identical [sched] seeds give bit-identical
    traces; steals appear as [Cell_event.Steal] alongside the deque cell
    traffic. *)

val vars : Fs_ir.Ast.program -> string array
(** Variable ids in declaration order, as used by cell events. *)

val read_global : result -> string -> int -> Value.t
(** [read_global r name cell] reads a cell of the final shared memory.
    @raise Not_found / Invalid_argument on bad names or cells. *)
