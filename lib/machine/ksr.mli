(** Execution-time model of a KSR2-like ring-based shared-memory machine.

    Used for the paper's run-time experiments (Figure 4, Table 3): a
    56-processor machine built from two slotted rings of 32 processors,
    512 KB first-level caches (we model the 256 KB data half), a 128-byte
    coherence unit, and remote miss latencies of 175 cycles within a ring
    and 600 cycles across rings (Section 4).

    The model is driven by the interpreter's event stream.  Each processor
    has its own cycle clock:

    - computation advances the clock by [work_cpi] cycles per interpreter
      work unit;
    - memory references run through an embedded {!Fs_cache.Mpcache}
      write-invalidate simulator; hits cost [hit_cycles], upgrades a ring
      round-trip, and misses the same-/cross-ring latency of the provider;
    - every miss also occupies the serviced block for [occupancy] cycles,
      and a processor whose miss finds the block busy queues behind earlier
      requests — this is the memory contention that makes falsely shared
      blocks a scalability bottleneck (Section 5);
    - barriers align the participants' clocks to the latest arrival plus a
      cost that grows with the processor count;
    - a contended lock hands over from the releaser's clock to the waiter.

    Timing does not feed back into the interleaving (the trace is
    schedule-determined); this keeps runs deterministic and preserves the
    phenomena under study, which depend on miss counts and per-block
    queueing rather than on fine-grained timing feedback. *)

type config = {
  nprocs : int;
  ring_size : int;           (** processors per ring (32 on the KSR2) *)
  block : int;               (** coherence unit (128 bytes) *)
  cache_bytes : int;         (** per-processor data cache (256 KB) *)
  assoc : int;
  work_cpi : int;            (** cycles per interpreter work unit *)
  hit_cycles : int;
  same_ring_latency : int;   (** 175 *)
  cross_ring_latency : int;  (** 600 *)
  upgrade_latency : int;     (** invalidation round-trip on a write upgrade *)
  occupancy : int;           (** cycles a block stays busy serving one miss *)
  ring_occupancy : int;      (** interconnect cycles per coherence transaction *)
  inval_occupancy : int;     (** extra interconnect cycles per invalidated copy *)
  barrier_base : int;        (** barrier cost: base + slope * nprocs *)
  barrier_slope : int;
}

val default_config : nprocs:int -> config

type result = {
  cycles : int;               (** the run's makespan: latest processor clock *)
  per_proc : int array;       (** final clock of each processor *)
  mem_stall : int array;      (** cycles spent in misses/queueing, per processor *)
  sync_stall : int array;     (** cycles spent waiting at barriers and locks *)
  lock_stall : int array;     (** the lock-serialization share of [sync_stall];
                                  barrier idle time is the difference *)
  cache : Fs_cache.Mpcache.counts;  (** protocol totals at 128-byte blocks *)
}

type t

val create : config -> t

val cache : t -> Fs_cache.Mpcache.t
(** The embedded protocol simulator. *)

val finish : t -> result
(** Call after the run driving the model has completed. *)

val config : t -> config
val clocks : t -> int array

val charge : t -> proc:int -> addr:int -> int -> unit
(** Charge [proc]'s reference to [addr] from its
    {!Fs_cache.Mpcache.access_raw} outcome.  The engine's KSR2 body
    ([Fs_replay.Replay.machine]) advances {!clocks} itself for a hit and
    for work, and hands the rest to {!charge} and {!listener}. *)

val listener : t -> Fs_trace.Listener.t
