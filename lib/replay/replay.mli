(** Mapping layout-free cell traces to concrete address streams.

    The interpreter decides {e what} is accessed in {e which} order; a
    layout decides {e where} each cell lives.  This module is the second
    half of that split: it routes a {!Fs_trace.Cell_trace} (in memory or
    on disk) through a layout's address oracle, producing
    exactly the address-level stream the simulators consume — including
    the pointer-load reads an indirection layout interposes, which exist
    only at replay time.

    Replay is deterministic and order-preserving: one recorded trace
    replayed under two layouts yields two address streams over the same
    schedule, which is what makes false-sharing comparisons across
    layouts meaningful (the paper's simulator "only observes the address
    stream"). *)

(** {1 The replay engine}

    One chunked loop over packed events, decoded inline and mapped
    through the layout's per-variable address tables, with no per-event
    allocation.  Its bodies feed a {!Fs_cache.Mpcache} ({!simulate}),
    the KSR2 model ({!machine}) or a listener ({!drive}).  The cache counts equal those
    of {!drive} into [Listener.of_sink (Mpcache.touch cache)], per
    processor and per block too. *)

type run = {
  counts : Fs_cache.Mpcache.counts;  (** the cache's whole-run totals *)
  epochs : Fs_cache.Mpcache.counts array array;
      (** counts per barrier-release epoch and processor: [epochs.(e)]
          covers the events between release [e - 1] (or the start) and
          release [e], the last entry the tail after the final release;
          [epochs.(e).(p)] is processor [p]'s share, cut from
          {!Fs_cache.Mpcache.proc_counts}.  The entries sum field-wise
          to [counts]. *)
}

val simulate :
  ?flight:Flight.t ->
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  cache:Fs_cache.Mpcache.t ->
  run
(** Replay an in-memory trace into [cache].

    Passing [?flight] deposits one allocation-free sample into the
    {!Flight} ring every [Flight.interval] packed events from the start
    of the trace, and one at its end when that falls between two
    multiples (live cumulative counts, wall offset, block of the most
    recent access).  Samples are taken between chunks, so the per-event
    loop is the same with or without a recorder and the counts are
    identical.
    @raise Invalid_argument when the layout lacks a variable or cell the
    trace touches (a trace of another program or scale). *)

val simulate_stream :
  Fs_trace.Cell_trace.Stream.t ->
  layout:Fs_layout.Layout.t ->
  cache:Fs_cache.Mpcache.t ->
  run
(** {!simulate} over an on-disk trace, one block at a time through one
    reused buffer: counts and epochs are identical to replaying the
    in-memory trace, while peak heap stays at one block.
    @raise Fs_trace.Cell_trace.Corrupt on a damaged block, and
    [Invalid_argument] as {!simulate}. *)

val drive :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  listener:Fs_trace.Listener.t ->
  unit
(** Every event of an in-memory trace, in order, to [listener], pointer
    loads included; steals have no address and are dropped.  The route
    of the timeline.  @raise Invalid_argument as {!simulate}. *)

val machine :
  Fs_trace.Cell_trace.t -> layout:Fs_layout.Layout.t -> Fs_machine.Ksr.t -> unit
(** Run the KSR2 model over an in-memory trace, ending as if
    {!Fs_machine.Ksr.listener} had heard the same run from the
    interpreter.  @raise Invalid_argument as {!simulate}. *)

val replay :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  listener:Fs_trace.Listener.t ->
  unit
(** {!drive}, under the name the repo benchmark ([perfbench/]) calls. *)

val replay_to_sink :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  sink:Fs_trace.Sink.t ->
  unit
(** {!drive} into [Listener.of_sink sink], for the same caller. *)

val simulate_sharded_stream :
  Fs_trace.Cell_trace.Stream.t ->
  shards:int ->
  layout:Fs_layout.Layout.t ->
  config:Fs_cache.Mpcache.config ->
  run
(** {!simulate_stream} into a fresh cache of [config].  Kept for the
    repo benchmark ([perfbench/bench.ml]), its only caller.
    @raise Invalid_argument unless [shards = 1]. *)
