(** One query, resolved.

    The paper runs every experiment from one tuple: a program, a
    processor count, a block size and a layout version (Sections 4–5).
    The CLI and the [serve] daemon both turn their input into that tuple
    here, so they agree on every default, look programs up the same way,
    and refuse the same input with the same message: {!Refused}, which
    the CLI prints with exit 2 and [serve] answers with a 400. *)

exception Refused of string

val refuse : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Refused} with a [printf]-formatted message. *)

type version = Fs_workloads.Workload.version

val workload : string -> Fs_workloads.Workload.t
(** The registered workload of that name.
    @raise Refused naming the nearest names, or the suite. *)

type target = Workload of Fs_workloads.Workload.t | Source of string  (** ParC *)

type query = {
  nprocs : int option;
  scale : int option;
  block : int option;
  layout : version option;
  seed : int option;  (** the work-stealing runtime's *)
  top : int option;
  max_iters : int option;
}
(** What the caller sent; [None] takes the default. *)

type t = private {
  workload : Fs_workloads.Workload.t option;  (** [None] for a source *)
  name : string;  (** the workload's, or ["<source>"] *)
  prog : Fs_ir.Ast.program;
  nprocs : int;
  scale : int;
  block : int;
  version : version;
  seed : int option;
  top : int;
  max_iters : int;
}

(** Defaults every command shares: 12 processors (Figure 3's count),
    128-byte blocks (the KSR2's), and at most 5 accepted repairs. *)

val default_nprocs : int
val default_block : int
val default_max_iters : int

val default_layout : string -> version
(** The compiler's layout for ["hotlines"], ["repair"] and ["profile"],
    whose interesting lines are the ones the static analysis left
    behind; the unoptimized one otherwise. *)

val default_top : string -> int
(** The hot lines a repair diagnosis tracks, 64, for ["repair"]; the
    lines or blocks a command lists, 10, otherwise. *)

val resolve : command:string -> target -> query -> t
(** [command] is the CLI subcommand or [serve] endpoint.  Defaults:
    {!default_nprocs}, {!default_block}, the workload's default scale (1
    for a source), {!default_layout}, {!default_top},
    {!default_max_iters}, no seed.  A source runs as sent, after {!Fs_sched.Sched.instrument}.
    @raise Refused unless [nprocs] is in 1..256 (the trace's process
    limit), [scale] >= 1, [block] a power of two >= 4, [top] >= 1 and
    [max_iters] >= 0; on a scale sent with a source, a programmer
    layout the program does not have, and a source that does not
    validate. *)

val sched : t -> Fs_sched.Sched.config option
(** The schedule a recording runs on.
    @raise Refused when the program spawns tasks and no seed was given:
    a silent default would let two "same" runs differ in their steals. *)

val plan : t -> Fs_layout.Plan.t
(** The plan of [t.version]: {!Experiments.plan_for} for a workload; for
    a source, empty under N and {!Sim.compiler_plan} under C.
    @raise Refused when a programmer layout, written for the paper's
    processor counts, does not fit the program at [t.nprocs]. *)

val recorded : t -> Sim.recorded
(** Through {!Trace_memo} for a workload, {!Sim.record} for a source.
    @raise Refused as {!sched} does. *)

type 'a analysis =
  recorded:Sim.recorded -> Fs_ir.Ast.program -> Fs_layout.Plan.t -> nprocs:int -> block:int -> 'a
(** A replay-side analysis: {!Attribution.attribute}, {!Blame.analyze},
    {!Phases.analyze}, {!Hotlines.analyze}, the repair loop, {!sweep}. *)

val replay : t -> 'a analysis -> 'a
(** Run an analysis on {!recorded} under {!plan}, in a ["replay"] span.
    @raise Refused as {!plan} and {!recorded} do. *)

val simulate : jobs:int -> t -> (string * Sim.cache_run) list
(** {!Sim.cache_sim} under every layout the program is compared under,
    each by {!layout_name}, on up to [jobs] domains: for a workload the
    unoptimized one, then every version the paper evaluates; for a
    source N and C.
    @raise Refused as {!replay} does. *)

val sweep : jobs:int -> ((int * Fs_cache.Mpcache.counts) list * Fs_util.Par.stats) analysis
(** The plan's counts at every block size from 8 to 256 bytes (whatever
    [block]), on up to [jobs] domains, with the pool's stats. *)

val layout_name : version -> string
(** ["unoptimized"], ["compiler"] or ["programmer"]: the CLI's
    [--layout], serve's ["layout"] and the reports' name of a version. *)

val layouts : (string * version) list
(** Every version under its {!layout_name}, N first. *)

val layout_of_name : string -> version
(** @raise Refused unless the name is one of {!layouts}. *)

val program_fault : exn -> string option
(** The message of a program's own run-time fault (an interpreter
    [Runtime_error], [Deadlock] or [Nontermination]), else [None]. *)
