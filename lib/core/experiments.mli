(** Reproduction drivers for every table and figure in the paper's
    evaluation (Section 5), plus the headline statistics quoted in the
    text.  Each driver returns structured data and has a renderer that
    prints rows shaped like the paper's. *)

type version = Fs_workloads.Workload.version

val plan_for :
  Fs_workloads.Workload.t ->
  version ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  scale:int ->
  Fs_layout.Plan.t
(** The layout plan of a benchmark version: empty for N (and for a single
    process, where sharing cannot occur), the compiler's plan for C, the
    hand-written plan for P.  Plans are memoized per
    (workload, version, nprocs, scale); [prog] must be the workload's
    build at that configuration. *)

val layout_name : version -> string
(** ["unoptimized"], ["compiler"] or ["programmer"]: a version's layout
    as the CLI's [--layout], serve's ["layout"] field and the [sim] and
    [/analyze] reports name it. *)

val layouts : (string * version) list
(** Every version under its {!layout_name}, N first. *)

val versions :
  Fs_workloads.Workload.t ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  scale:int ->
  (string * Fs_layout.Plan.t) list
(** The layouts a workload is compared under, each named by
    {!layout_name} with its {!plan_for}: the unoptimized one first, then
    every other version the paper evaluates. *)

val profile_blocks : int list
(** The block sizes a profile sweeps: 8 to 256 bytes. *)

(** {1 Figure 3} — total miss rates split into false sharing and other
    misses, unoptimized vs compiler-transformed, per block size. *)

type fig3_cell = {
  accesses : int;
  misses : int;
  false_sharing : int;
}

type fig3_row = {
  name : string;
  procs : int;
  block : int;
  unopt : fig3_cell;
  compiler : fig3_cell;
}

val figure3 :
  ?blocks:int list -> ?scale_override:int -> ?jobs:int -> unit -> fig3_row list
(** Defaults: the six simulated benchmarks at their Figure 3 processor
    counts (12; Topopt 9), block sizes 16 and 128.  Each workload is
    interpreted once (via {!Trace_memo}) and the per-block cache runs
    replay that trace, fanned out over [jobs] domains. *)

val render_figure3 : fig3_row list -> string

(** {1 Table 2} — false-sharing reduction, total and attributed to each
    transformation, averaged over block sizes. *)

type table2_row = {
  name : string;
  total_reduction : float;   (** fraction of false-sharing misses removed *)
  group_transpose : float;   (** fraction of the original false sharing
                                 removed by group & transpose (incl.
                                 regrouping) *)
  indirection : float;
  pad_align : float;
  locks : float;
}

val table2 : ?blocks:int list -> ?jobs:int -> unit -> table2_row list
(** Default blocks: 8–256 bytes, as in the paper.  Attribution applies the
    plan's transformation families cumulatively (group & transpose, then
    indirection, then pad & align, then lock padding) and charges each
    family its marginal reduction. *)

val render_table2 : table2_row list -> string

(** {1 Figure 4 / Table 3} — scalability on the KSR2 model. *)

type series = {
  workload : string;
  version : version;
  points : (int * float) list;  (** processor count, speedup *)
}

val speedups :
  ?procs:int list -> ?names:string list -> ?jobs:int -> unit -> series list
(** Speedups relative to the single-processor run of the unoptimized
    version, as in Figure 4.  Default processor counts:
    1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56. *)

val figure4 : ?procs:int list -> ?jobs:int -> unit -> series list
(** The paper's three representative programs: Raytrace, Fmm, Pverify. *)

val render_series : series list -> string

type table3_row = {
  name : string;
  results : (version * float * int) list;
      (** per available version: maximum speedup and the processor count
          where it occurs *)
}

val table3 :
  ?procs:int list -> ?series:series list -> ?jobs:int -> unit -> table3_row list
(** Computed from {!speedups} over all ten benchmarks (pass [series] to
    reuse already-computed curves). *)

val render_table3 : table3_row list -> string

(** {1 Headline statistics} quoted in the abstract and Section 1:
    the fraction of misses that are false sharing at 128-byte blocks, the
    fraction of false-sharing misses the transformations remove, the
    increase in other misses, and the total-miss reduction at 64-byte
    blocks. *)

type stats = {
  fs_share_of_misses_128 : float;
  fs_removed_128 : float;
  other_miss_increase_128 : float;
  total_miss_reduction_64 : float;
}

val text_stats : ?jobs:int -> unit -> stats
val render_stats : stats -> string

(** {1 Execution-time improvements} (Section 5): the largest reduction in
    execution time of the compiler version over the unoptimized version,
    within the processor range where the unoptimized version still
    scales. *)

type exec_row = {
  name : string;
  improvement : float;  (** fraction of unoptimized time saved *)
  at_procs : int;
}

val exec_time_improvements : ?procs:int list -> ?jobs:int -> unit -> exec_row list
val render_exec : exec_row list -> string
