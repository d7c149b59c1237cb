(** The false-sharing blame matrix.

    {!Attribution} answers {e which} data structure misses; this module
    answers {e who does it to whom}: for every shared variable, a
    processor-pair matrix of the invalidations its blocks suffered —
    writer (src) × loser (victim) — split between upgrade writes and
    write misses, plus the top-K hottest blocks with their owning
    variable and cell ranges.

    Per-variable totals agree with {!Attribution.attribute}: both fold
    the same per-block counters through the same dominant-owner map. *)

type pair = { src : int; victim : int; upgrades : int; write_misses : int }

type var_row = {
  var : string;
  invalidations : int;  (** total copies of this variable's blocks destroyed *)
  by_upgrade : int;
  by_write_miss : int;
  matrix : int array array;  (** [src][victim] -> invalidations *)
  pairs : pair list;         (** the nonzero flows, heaviest first *)
}

type hot_block = {
  block : int;
  var : string;
  cell_lo : int;  (** lowest cell id of [var] in the block, or -1 *)
  cell_hi : int;
  counts : Fs_cache.Mpcache.counts;
}

type t = {
  nprocs : int;
  block : int;
  rows : var_row list;      (** variables with invalidations, heaviest first *)
  hot : hot_block list;     (** top-K blocks by invalidations *)
}

val analyze :
  ?top:int ->
  recorded:Sim.recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  t
(** Replays [recorded] through the cache simulation ({!Sim.replay}) with
    pair tracking.  [top] bounds the hot-block list (default 10). *)

val render : t -> string
