(** A timeline recorder for interpreter runs, exported as Chrome
    trace-event JSON (loadable in Perfetto or chrome://tracing).

    The recorder is a {!Fs_trace.Listener.t}: attach it (possibly combined
    with the cache or machine listener) to a listener replay
    ([Fs_replay.Replay.drive]) and it captures

    - per-processor {b work segments} — one duration slice per batch of
      work units, annotated with the accesses issued since the previous
      slice;
    - {b barrier episodes} — a "barrier wait" slice per processor from its
      arrival to the episode's release (the latest arrival), plus a global
      instant event at the release;
    - {b lock contention} — a "lock wait" slice from a processor's failed
      acquire to its grant, ending no earlier than the granting
      processor's clock.

    Time is the interpreter's logical time: one work unit = one
    microsecond of trace time.  The trace is not cycle-accurate (that is
    the KSR2 model's job); it shows {e structure} — phase lengths, barrier
    skew, and lock convoys. *)

type t

val create : nprocs:int -> t

val listener : t -> Fs_trace.Listener.t
(** Events for out-of-range processors are ignored. *)

val events : t -> int
(** Number of trace events recorded so far. *)

val time : t -> int
(** The recorder's current logical time: the furthest per-processor
    clock.  Barrier releases leave every clock equal, so sampled there it
    is {e the} global time — where per-epoch counter samples belong. *)

val slice :
  t ->
  name:string ->
  ts:int ->
  dur:int ->
  tid:int ->
  args:(string * Json.t) list ->
  unit
(** Append a duration event ([ph = "X"]) directly — the escape hatch for
    recorders that are not interpreter listeners (the {!Span} export). *)

val counter : t -> name:string -> ts:int -> values:(string * float) list -> unit
(** Append a Chrome counter event ([ph = "C"]): a named track of stacked
    series sampled at [ts].  Used for the per-epoch miss-class tracks —
    one sample per barrier release — so Perfetto draws false sharing over
    the run's phase structure. *)

val to_json : t -> Json.t
(** The full trace: [{"traceEvents": [...], "displayTimeUnit": "ms"}].
    Includes process/thread-name metadata events. *)

val write_file : t -> string -> unit
(** Write the trace (pretty-printed) to a file. *)
