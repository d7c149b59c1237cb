(** The analysis daemon: [falseshare serve].

    One process serves the whole toolchain over HTTP/JSON to any number
    of tenants: POST a workload name or a ParC source to [/analyze],
    [/blame], [/hotlines], [/phases], [/repair], or [/profile] and get
    back the same JSON the CLI's [--json] mode prints, wrapped in an
    envelope carrying the request id, cache/coalescing provenance, and
    the request's causal span tree.

    {2 Requests}

    A body is resolved by {!Falseshare.Request}, as the CLI's flags are,
    under the daemon's own resource ceilings.  A refused request is a
    [400]; a fault of the program itself is a [422] with its message.

    {2 Anatomy}

    An accept thread reads each request (one per connection) and answers
    the cheap endpoints — [GET /healthz], [GET /metrics] (Prometheus
    text exposition), [GET /statusz], [POST /quitquitquit] — inline.
    Work endpoints go through a {e bounded} queue drained by a fixed set
    of worker threads; when the queue is full the daemon answers
    [503 Service Unavailable] with [Retry-After: 1] instead of building
    an unbounded backlog.  Inside a request, parallelism comes from the
    {!Fs_util.Par} domain pool ([jobs] domains), not from threads:
    worker threads share the runtime's domain 0, so heavy computations
    are serialized by a compute lock and only ever oversubscribe the
    machine by the domain fan-out they ask for.

    {2 Caching}

    Results are content-addressed in a {!Store} under the SHA-256 of
    (endpoint × program text × every resolved parameter): a repeated
    query is served from disk — no interpretation, no replay, and its
    span tree shows the store probe where the computation would be.
    Identical requests {e in flight} coalesce through {!Fs_util.Singleflight},
    so N tenants asking the same question while it is being computed
    cost one computation.

    {2 Shutdown}

    [POST /quitquitquit] (or {!stop}) closes the listener; workers
    drain the queue, answer what was already admitted, and exit.
    {!wait} blocks until that has happened. *)

type config = {
  port : int;            (** 0 picks an ephemeral port; see {!port} *)
  workers : int;         (** worker threads draining the queue *)
  queue_capacity : int;  (** admitted-but-unserved bound before 503 *)
  jobs : int;            (** domain fan-out available to one request *)
  cache_dir : string;    (** root of the result {!Store} *)
  cache_budget_bytes : int;
  debug_endpoints : bool;
      (** enable [GET /sleepz?s=0.2] — a queue-occupying no-op the
          tests and benchmarks use to exercise backpressure *)
}

val default_config : config
(** Port 0, 4 workers, queue of 64, {!Fs_util.Par.default_jobs} domains,
    [_falseshare_cache], {!Store.default_budget_bytes}, debug endpoints
    off.  [/statusz] remembers the last 32 requests, and each connection
    reads and writes under a 30 s timeout. *)

type t

val start : config -> t
(** Bind 127.0.0.1, spawn the accept thread and the workers, register
    the [serve_*] metrics, and route the domain pool's observer into
    the daemon's registry.
    @raise Unix.Unix_error when the port cannot be bound. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was 0. *)

val shutdown : t -> unit
(** Begin stopping — close the listener and wake the workers — without
    waiting for anything.  Safe from a signal handler or a request
    context; pair with {!wait} to block until the drain completes. *)

val stop : t -> unit
(** {!shutdown}, then join every thread once the workers have drained
    the queue.  Idempotent; must not be called from a request handler or
    a signal handler (those use {!shutdown} / [/quitquitquit]). *)

val wait : t -> unit
(** Block until the daemon has stopped (via {!stop} or
    [/quitquitquit]) and every thread has been joined. *)
