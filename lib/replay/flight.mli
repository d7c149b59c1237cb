(** Flight recorder for the fused replay hot loop.

    The fused packed-replay path retires tens of millions of events per
    second; any per-event instrumentation that allocates or takes a lock
    would dominate the loop it is meant to observe.  The recorder
    therefore samples: every [interval] packed events the loop deposits
    one row — live cumulative cache counters, wall-clock offset, and the
    block of the most recent access — into a fixed-size ring of parallel
    scalar arrays.  A sample is a handful of unboxed stores and allocates
    nothing, so the GC never sees the recorder during replay.  Samples
    are taken between chunks of the replay loop, never inside it, so the
    per-event loop is the same with or without a recorder.

    The ring keeps the most recent [capacity] samples (older ones are
    overwritten), which bounds memory for arbitrarily long traces while
    retaining the tail — where steady-state rate and miss mix live. *)

type t

val create : ?capacity:int -> ?interval:int -> unit -> t
(** [create ()] makes an idle recorder.  [capacity] (default 256) is the
    ring size in samples; [interval] (default 4096) is the number of
    packed events between samples.  Raises [Invalid_argument] if either
    is not positive. *)

val interval : t -> int

val start : t -> unit
(** Reset the ring and stamp time zero.  {!Replay.simulate} calls this
    on entry, so a recorder can be reused across runs. *)

val sample :
  t -> at_event:int -> counts:Fs_cache.Mpcache.counts -> block:int -> unit
(** Deposit one row: [at_event] is the index of the packed event just
    retired, [counts] the simulator's live cumulative counters (read,
    not retained), [block] the block number of the most recent access.
    Called by the instrumented replay loop; allocation-free. *)

(** One retained row, decoded out of the ring. *)
type sample = {
  s_event : int;
  s_wall : float;  (** seconds since {!start} *)
  s_reads : int;
  s_writes : int;
  s_cold : int;
  s_repl : int;
  s_true_sh : int;
  s_false_sh : int;
  s_block : int;
}

val samples : t -> sample list
(** Retained samples in chronological order (oldest surviving first —
    the ring may have overwritten earlier ones). *)

(** Summary of a recording, computed from the retained samples. *)
type digest = {
  d_interval : int;
  d_taken : int;      (** samples ever taken, including overwritten ones *)
  d_retained : int;
  d_events : int;     (** event index at the last sample *)
  d_wall : float;     (** wall seconds at the last sample *)
  d_rate : float;     (** Mevents/s over the whole recording *)
  d_peak_rate : float;(** max Mevents/s between consecutive samples *)
  d_cold : int;
  d_repl : int;
  d_true_sh : int;
  d_false_sh : int;   (** miss mix at the last sample (cumulative) *)
  d_hot_block : int;  (** most frequently sampled current block; [-1] if empty *)
  d_hot_share : float;
}

val digest : t -> digest

val render : t -> string
(** Human-readable digest: sampling cadence, event rate with peak, the
    hottest sampled block, and a bar chart of the final miss mix. *)

val to_json : t -> Fs_obs.Json.t
(** Digest plus the full retained sample list, for [--json] consumers. *)
