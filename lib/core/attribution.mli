(** Per-data-structure miss attribution.

    The paper's central validation is that the static analysis identifies
    the data structures responsible for most false-sharing misses.  This
    module closes that loop from the dynamic side: it runs the cache
    simulation with per-block tracking and folds the per-block counters
    back onto the shared globals through the layout's address map, so the
    simulator's verdict can be compared with the compiler's report
    structure by structure. *)

val pointer_owner : string
(** The pseudo-variable owning injected indirection-pointer cells. *)

val unmapped_owner : string
(** The pseudo-variable owning blocks no global maps to. *)

val block_owner :
  Fs_ir.Ast.program -> Fs_layout.Layout.t -> block:int -> int -> string
(** [block_owner prog layout ~block] maps a block number to the variable
    owning the most cells in it — the attribution rule shared with
    {!Blame}. *)

val cell_range :
  Fs_ir.Ast.program ->
  Fs_layout.Layout.t ->
  block:int ->
  string ->
  int ->
  int * int
(** [cell_range prog layout ~block var blk] is the lowest and highest cell
    index of [var] mapped into block [blk], or [(-1, -1)] when [var] is a
    pseudo-variable or owns no cell there. *)

type row = {
  var : string;
      (** a shared global, or ["(indirection pointers)"] for the pointer
          cells a transformation injected *)
  counts : Fs_cache.Mpcache.counts;
  blocks : int;  (** distinct cache blocks the variable's cells occupy *)
}

val attribute :
  recorded:Sim.recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  row list
(** Replay [recorded] into a block-tracking cache ({!Sim.replay}).  Rows
    sorted by false-sharing misses, heaviest first.  A block shared by
    several variables (the packed default layout) is attributed to the
    variable owning the most cells in it. *)

val render : row list -> string
