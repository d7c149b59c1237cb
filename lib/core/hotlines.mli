(** Hot-line forensics: line lifetimes mapped back to source variables.

    The per-block counters say {e how many} misses a cache line cost; the
    line-lifetime stats from {!Fs_cache.Mpcache.lines} say {e why}: how
    ownership of the line migrated between writers, how long the
    alternating-writer runs were, how many distinct words each processor
    touched.  This module joins the two, attributes every line to the
    variable owning it through the layout oracle, classifies the sharing
    it exhibits at word granularity, and names the transformation that
    would fix it — the static planner's decision when it made one, a
    recommendation derived from the word-level footprint when the
    planner kept the layout (dynamically partitioned data, which the
    static analysis cannot attribute to a PDV axis, lands here). *)

type verdict =
  | Falsely_shared
      (** the line's sharing misses are dominantly false — invalidations
          moved data the victim never consumed *)
  | Truly_shared  (** dominantly true — the communication is real *)
  | Mixed         (** a genuine mix of the two *)
  | Private_line  (** at most one writer *)

val verdict_to_string : verdict -> string

type hot = {
  line : Fs_cache.Mpcache.line;
  counts : Fs_cache.Mpcache.counts;  (** the line's per-block miss counters *)
  owner : string;
  cell_lo : int;
  cell_hi : int;
  score : float;   (** {!Fs_cache.Mpcache.pingpong_score} *)
  verdict : verdict;
  fix : string;    (** the transformation that would fix the line *)
}

type t = {
  nprocs : int;
  block : int;
  total : Fs_cache.Mpcache.counts;
  hot : hot list;  (** top-K by false-sharing misses, then invalidations *)
  dropped : int;   (** lines beyond the top-K cut *)
}

val analyze :
  ?top:int ->
  recorded:Sim.recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  t
(** Replay [recorded] ({!Sim.replay}) with block and line tracking on,
    and rank the lines.  [top] defaults to 10. *)

val render : t -> string
(** Ranked table plus migration histogram bars. *)
