(** Causal spans: nested start/stop timing with parent links, wall-clock
    and allocation deltas, and structured attributes.

    A span recorder keeps the {e tree} of a run's timing: which phase
    ran inside which, in what order, with what arguments.  It is the
    one timer: phase totals are read off it.  The pipeline, the
    experiment drivers, the trace memo, the repair loop, and every CLI
    subcommand push spans into the ambient recorder; the result exports
    as an indented text tree, a nested JSON tree, or a Chrome-trace
    {!Timeline} loadable in Perfetto.

    A recorder is single-domain, like the metrics registry.  The ambient
    recorder is {e domain-local}: installing one on the calling domain
    never races the pool's worker domains — on a domain with no recorder,
    {!timed} runs its thunk directly and {!note} is a no-op, so
    instrumented code costs nothing when telemetry is off. *)

type span = {
  id : int;           (** dense, in start order *)
  parent : int;       (** id of the enclosing span, -1 for roots *)
  depth : int;
  name : string;
  mutable attrs : (string * string) list;
  start_s : float;    (** seconds since the recorder was created *)
  mutable dur_s : float;        (** wall seconds; -1.0 while still open *)
  start_alloc : float;
  mutable alloc_bytes : float;  (** GC-allocated bytes; -1.0 while open *)
}

type t

val create : unit -> t

val with_ : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ t name f] runs [f] inside a fresh span nested under the
    innermost open span.  The span is closed when [f] returns {e or}
    raises (the exception is recorded as an ["error"] attribute and
    re-raised). *)

val attr : t -> string -> string -> unit
(** Attach an attribute to the innermost open span; no-op when no span
    is open. *)

val spans : t -> span list
(** All spans in start order, open ones included. *)

val duration : t -> span -> float
(** The span's wall time; for a still-open span, elapsed so far. *)

val allocated : t -> span -> float
(** The span's allocation delta in bytes (as {!Gc.allocated_bytes}
    measures it, so child spans' allocations are included); for a
    still-open span, allocated so far. *)

(** {1 The ambient recorder} *)

val set_current : t option -> unit
(** Install (or clear) the current domain's ambient recorder. *)

val current : unit -> t option

val timed : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** {!with_} on the ambient recorder; just the thunk when none is
    installed. *)

val note : string -> string -> unit
(** {!attr} on the ambient recorder; no-op when none is installed. *)

(** {1 Export} *)

val render : t -> string
(** The span tree as indented text: name, wall ms, allocation, attrs. *)

val to_json : t -> Json.t
(** A list of root span objects [{"id", "name", "start_s", "wall_s",
    "alloc_bytes", "attrs"?, "children"?}], nesting recursively. *)

val to_timeline : t -> Timeline.t
(** One Chrome-trace duration slice per span (microsecond timestamps),
    ready for {!Timeline.write_file} and Perfetto. *)

val write_file : t -> string -> unit
(** Write {!to_json} (pretty-printed) to a file. *)
