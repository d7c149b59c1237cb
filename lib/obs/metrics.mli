(** A labeled metrics registry: counters, gauges, and histograms.

    Every stage of the pipeline registers what it measures here — the
    interpreter its work units, barrier waits, and lock contention; the
    cache simulator its per-processor misses, invalidations, and upgrades;
    the KSR2 model its stall cycles — so a run's telemetry is one
    structure, renderable as text or JSON.

    Metrics are identified by name plus a label set; asking twice for the
    same (name, labels) returns the same instrument.  Registries are
    single-threaded, like everything in the simulator. *)

type t

val create : unit -> t

val global : unit -> t
(** The process-global registry.  Long-lived front ends (the CLI, the
    bench harness) accumulate cross-cutting telemetry here — pool
    fan-out stats, command timings — and dump it with [--metrics-out]. *)

type labels = (string * string) list

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** Upper bound of each bucket (the last is [infinity]) with the
      {e cumulative} count of observations at or below it. *)

  val absorb : t -> counts:int array -> sum:float -> unit
  (** Merge pre-bucketed observations: [counts] are {e per-bucket} (not
      cumulative) counts, one per finite bound plus the overflow bucket,
      and [sum] is the sum of the underlying observations.  Used to fold
      the domain pool's fixed-bucket task histograms into a registry.
      @raise Invalid_argument if the bucket counts don't line up. *)
end

val counter : t -> ?labels:labels -> ?help:string -> string -> Counter.t
val gauge : t -> ?labels:labels -> ?help:string -> string -> Gauge.t

val histogram :
  t -> ?labels:labels -> ?help:string -> ?buckets:float list -> string ->
  Histogram.t
(** [buckets] are the finite upper bounds, sorted ascending; a catch-all
    [infinity] bucket is appended.  Defaults to powers of ten from 1 to
    1e6.  The bucket list of an existing histogram is not changed.

    For all three: [help] sets the metric's [# HELP] text; the first
    registration to supply one wins.

    Metric and label names are validated against the Prometheus grammar
    at registration time — metric names must match
    [[a-zA-Z_:][a-zA-Z0-9_:]*], label names [[a-zA-Z_][a-zA-Z0-9_]*] —
    because a dash or a leading digit would render an exposition no
    scraper accepts.
    @raise Invalid_argument on a name outside the grammar. *)

val listener : t -> Fs_trace.Listener.t
(** The per-event reference for the [interp_*] counters: counts work
    units and accesses per processor, barrier arrivals and releases, lock
    waits and grants (contended grants — those handed over by another
    processor — counted separately).  It does a registry lookup per
    event, so no production path uses it: [Falseshare.Pipeline.run]
    derives the same series from the cache and the recording, and this
    listener is the oracle its tests (and the repo benchmark's metrics
    probe) replay against. *)

val to_json : t -> Json.t
(** An array of metric objects
    [{"name", "type", "labels", "value" | "count"/"sum"/"buckets"}],
    sorted by name then labels. *)

val render : t -> string
(** The Prometheus text exposition format: series grouped per metric
    under [# HELP] (when registered) and [# TYPE] headers; histograms
    emit the cumulative [_bucket{le="..."}] series ending at
    [le="+Inf"], then [_sum] and [_count].  Label values escape
    backslash, double quote, and newline; HELP text escapes backslash
    and newline. *)

val write_file : t -> string -> unit
(** Write {!render} to a file. *)
