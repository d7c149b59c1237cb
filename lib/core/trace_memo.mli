(** The trace memo: interpret each (workload, nprocs, scale) once.

    Interpreted executions are layout-free ({!Fs_trace.Cell_trace}), so
    every experiment that varies only the layout — block-size sweeps,
    plan ablations, version comparisons — can share one recorded trace.
    This module is the process-wide cache that makes the sharing happen
    across experiment drivers: Figure 3, Table 2 and the headline stats
    all hit the same six traces; the speedup sweeps share one trace per
    (workload, processor count) across the N/C/P versions.

    The cache is bounded (LRU over whole entries, default 128) and
    thread-compatible: bookkeeping is mutex-protected, and {!get_all}
    records missing traces on a {!Fs_util.Par} domain pool while the
    table itself is only touched from the calling domain's lock scope.
    Concurrent misses on the {e same} key coalesce: the first caller
    records the trace while the others block on a condition variable and
    pick the entry up when it lands, so N tenants asking for one
    configuration cost exactly one interpretation.

    With a capture directory set, recorded traces are also written to
    disk ([<workload>-p<nprocs>-s<scale>.fstrace], atomically) and
    re-loaded on later misses — even across processes.  A disk-loaded
    entry's [interp] summary is reconstructed from the event stream; its
    final-memory [store] is empty (values are not part of the trace).
    Entries are additionally keyed by a [stamp] of the capture file —
    its size and mtime — so a capture that is replaced on disk misses
    and reloads instead of aliasing the stale in-memory entry. *)

type key = {
  workload : string;
  nprocs : int;
  scale : int;
  seed : int option;
      (** scheduler seed for dynamic workloads; part of the trace's
          identity (capture files gain a [-seed<n>] suffix) *)
  stamp : string;
}

type entry = {
  prog : Fs_ir.Ast.program;
  trace : Fs_trace.Cell_trace.t;
  interp : Fs_interp.Interp.result;
}

val get :
  ?seed:int -> Fs_workloads.Workload.t -> nprocs:int -> scale:int -> entry
(** Cached, or interpreted (or disk-loaded) on miss.  [seed] seeds the
    work-stealing runtime and must be given for dynamic workloads. *)

val get_all :
  ?jobs:int ->
  ?seed:int ->
  (Fs_workloads.Workload.t * int * int) list ->
  entry list
(** [(workload, nprocs, scale)] configurations, result in input order.
    Misses are recorded in parallel on up to [jobs] domains; each
    distinct configuration is interpreted exactly once. *)

val set_capacity : int -> unit
(** @raise Invalid_argument below 1. *)

val set_capture_dir : string option -> unit

val clear : unit -> unit

val read_stats : unit -> int * int * int * int
(** (hits, misses, evictions, disk loads) since the last {!clear}. *)

val read_coalesced : unit -> int
(** How many callers piggybacked on another caller's in-flight recording
    instead of recording themselves, since the last {!clear}. *)
