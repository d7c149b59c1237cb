(** A minimal work-stealing-free domain pool, instrumented.

    [map ~jobs f xs] applies [f] to every element of [xs] on up to [jobs]
    OCaml 5 domains (the calling domain participates, so [jobs] is the
    total degree of parallelism) and returns the results {e in input
    order} — results never depend on [jobs], only wall-clock does.  Tasks
    are claimed from a shared atomic counter, so long and short tasks mix
    without static partitioning.

    [f] must be domain-safe: it may freely read shared immutable data
    (programs, recorded traces, plans) but must own any mutable state it
    touches (caches, layouts, machines it creates itself).

    If any task raises, the first exception observed is re-raised in the
    caller after all domains join; remaining queued tasks are abandoned.

    Every fan-out also measures itself: per worker, the number of tasks
    claimed, the time spent running them, the time spent waiting (claim
    latency plus the idle tail after the queue drains), and fixed-bucket
    histograms of per-task run and wait times.  [map_with_stats] returns
    the measurements; [map]/[iter] discard them but still deliver them to
    the {!set_observer} hook, so a front end can fold every internal
    fan-out into one metrics registry. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], unless the [FALSESHARE_JOBS]
    environment variable holds a positive integer, which then takes
    precedence (clamped to 64).  An explicit [?jobs] argument — e.g. a
    CLI [--jobs] — always wins over both, because this function is only
    the default.  Malformed values of the variable are ignored. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [jobs] defaults to {!default_jobs}; values below 1 mean 1 (purely
    sequential, no domains spawned).  An explicit [jobs] above the core
    count is honored (capped at 64 and at the task count) — results
    never depend on [jobs], and a one-core CI box asked for [--jobs 4]
    should still measure four workers, just oversubscribed. *)

val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit

(** {1 Pool instrumentation} *)

val bucket_bounds : float array
(** Finite upper bounds, in seconds, of the per-task run/wait histograms
    (log-spaced 1µs … 10s); an overflow bucket rides on top, so the
    histogram arrays have [Array.length bucket_bounds + 1] entries. *)

type worker_stats = {
  worker : int;          (** 0 is the calling domain *)
  tasks : int;
  busy_s : float;        (** summed task run time *)
  wait_s : float;        (** claim latency + idle tail until join *)
  run_hist : int array;  (** per-bucket (not cumulative) task run times *)
  wait_hist : int array; (** per-bucket claim-wait times *)
}

type stats = {
  jobs : int;            (** the clamped degree of parallelism *)
  task_count : int;
  wall_s : float;        (** fan-out wall-clock, spawn to last join *)
  workers : worker_stats array;  (** indexed by worker, length [jobs] *)
}

val map_with_stats : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list * stats
(** {!map}, plus the fan-out's measurements.  The sequential path
    (one job or fewer than two tasks) reports a single worker. *)

val utilization : stats -> worker_stats -> float
(** A worker's busy share of the fan-out's wall-clock. *)

val render_stats : stats -> string
(** A deterministic text table — workers in index order, fixed columns
    and number formats — of tasks, busy/wait time, and utilization per
    worker, with a totals row. *)

val set_observer : (stats -> unit) option -> unit
(** Install (or clear) a process-global hook receiving the [stats] of
    every fan-out, including purely sequential ones.  Called on the
    fan-out's calling domain after all workers join. *)
