(** Phase-resolved sharing forensics: the epoch segmenter.

    The paper's stage 2 (non-concurrency analysis) treats false sharing
    as a {e per-phase} phenomenon — data write-shared in one
    barrier-delimited phase may be perfectly private in the next.  This
    module makes that visible dynamically: it replays a recorded
    execution through the cache simulator and splits the run into
    {e epochs} at barrier releases, accumulating the full per-processor
    miss-class counters separately for every epoch.  Per-epoch counters
    sum exactly to the whole-run counters — the counters are snapshots
    of the same monotone accumulators, so nothing is counted twice or
    dropped (a property test holds this over every workload).

    The dynamic stream is also cross-checked against the static phase
    structure: a variable observed write-shared within one epoch (two or
    more distinct writing processors between two consecutive barrier
    releases) must be one the summary analysis predicts concurrently
    write-shared.  When the program's barriers all sit at loop depth 0
    and the dynamic epoch count matches the static phase count, epochs
    map one-to-one onto static phases and the check is per-phase
    ({!Exact}); when barriers repeat inside loops the dynamic epochs
    cycle through the static phases and each epoch is checked against
    the union of all phases' predictions ({!Folded}).  Lock words are
    exempt — their traffic is synchronization, handled by lock padding,
    not a data-layout prediction.  Any variable that fails the check is
    reported as a {!violation}: either the static analysis lost
    soundness or the trace disagrees with the phase structure, and both
    are worth knowing.  Scheduler globals ([__sched_*]) are exempt like
    lock words: their deque traffic exists only at run time and is
    invisible to the static analyses by design. *)

type epoch = {
  index : int;
  per_proc : Fs_cache.Mpcache.counts array;
      (** this epoch's counter deltas, one per processor *)
  write_shared : (string * int list) list;
      (** variables written by >= 2 processors within the epoch, with the
          writing processors, ascending *)
}

type violation = {
  vepoch : int;
  vvar : string;
  vwriters : int list;  (** observed writers, ascending *)
}

type mapping =
  | Exact   (** epoch [i] is static phase [i] *)
  | Folded  (** barriers repeat; epochs checked against all phases *)

type t = {
  nprocs : int;
  block : int;
  epochs : epoch list;  (** in execution order; last epoch follows the
                            final barrier *)
  aggregate : Fs_cache.Mpcache.counts;  (** the whole-run totals *)
  static_phases : int;
  mapping : mapping;
  violations : violation list;
}

val epoch_total : epoch -> Fs_cache.Mpcache.counts
(** Sum of the epoch's per-processor counters. *)

val analyze :
  recorded:Sim.recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  t
(** Replay [recorded] through a cache simulation ({!Sim.replay}), take
    the replay engine's per-processor epoch counts
    ({!Fs_replay.Replay.run}), attribute each epoch's write-sharing to
    variables from the recorded cell events, and run the static
    cross-check. *)

val render : t -> string
