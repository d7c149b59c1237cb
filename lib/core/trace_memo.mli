(** The trace memo: interpret each (workload, nprocs, scale) once.

    Interpreted executions are layout-free ({!Fs_trace.Cell_trace}), so
    every experiment that varies only the layout — block-size sweeps,
    plan ablations, version comparisons — can share one recorded trace.
    This module is the process-wide cache that makes the sharing happen
    across experiment drivers: Figure 3, Table 2 and the headline stats
    all hit the same six traces; the speedup sweeps share one trace per
    (workload, processor count) across the N/C/P versions.

    It is one {!Fs_util.Memo} of capacity 128, keyed by (workload,
    nprocs, scale, scheduler seed): concurrent misses on the same key
    coalesce, so N tenants asking for one configuration cost exactly one
    interpretation. *)

type entry = { prog : Fs_ir.Ast.program; recorded : Sim.recorded }

val get :
  ?seed:int -> Fs_workloads.Workload.t -> nprocs:int -> scale:int -> entry
(** Cached, or interpreted on miss.  [seed] seeds the work-stealing
    runtime and must be given for dynamic workloads. *)

val get_all :
  ?jobs:int ->
  ?seed:int ->
  (Fs_workloads.Workload.t * int * int) list ->
  entry list
(** [(workload, nprocs, scale)] configurations, result in input order.
    Misses are recorded in parallel on up to [jobs] domains; each
    distinct configuration is interpreted exactly once. *)

val clear : unit -> unit

val stats : unit -> Fs_util.Memo.stats
(** Since the last {!clear}. *)
