(** Profile-guided layout repair: replay → diagnose → patch, to fixpoint.

    The static planner of {!Fs_transform.Transform} works from per-process
    side-effect summaries; the paper itself reports the cases where that
    profile misleads it — busy scalars whose weight the static profile
    underestimates (Maxflow, Raytrace), and dynamically partitioned arrays
    whose revolving ownership has no PDV axis to group on (Topopt).  This
    module closes the loop from the dynamic side: given one recorded cell
    trace and a starting plan, it replays under the plan with line tracking
    on, reads repair candidates off the hot-line forensics
    ({!Falseshare.Hotlines}), scores them with a cost model (false-sharing
    misses removed against space overhead and indirection loads), applies
    the best candidate as a plan delta through {!Fs_layout.Plan.merge}, and
    iterates until no candidate survives.

    Everything is deterministic — candidates are ranked by score with total
    tie-breaks — and the loop is accept-only-if-better: a delta is kept
    only when the replayed false-sharing count strictly drops and total
    misses do not rise, so a refined plan never regresses the plan it
    started from. *)

type options = {
  max_iters : int;     (** cap on accepted repairs (default 5) *)
  top : int;           (** hot lines tracked per diagnosis (default 64) *)
}

val default_options : options

(** What a candidate does, in terms a narration can print and a test can
    pattern-match. *)
type kind =
  | Pad_hot_scalars of string list
      (** pad & align every unclaimed data scalar co-allocated in the hot
          blocks — the busy-scalar repair; the payload lists the padded
          variables in declaration order *)
  | Pad_lock_cells
      (** add {!Fs_layout.Plan.Pad_locks}: a falsely shared line holds a
          lock co-allocated with data (or another lock) *)
  | Partition_array of { ways : int; chunked : bool }
      (** regroup a revolving array so inferred per-processor partitions
          start on block boundaries *)
  | Widen_pad  (** replace a whole-variable pad with a per-element pad *)
  | Pad_elements
      (** pad & align every element of an array (the record-array repair) *)
  | Isolate_variable
      (** pad & align the variable as a unit, splitting it from whatever
          shares its blocks *)
  | Indirect_fields of string list
      (** hoist per-process array fields out of an array of records *)

type candidate = {
  target : string;  (** the variable that motivated the repair *)
  kind : kind;
  adds : Fs_layout.Plan.action list;
  drops : Fs_layout.Plan.action list;
      (** existing actions the delta replaces (widening a pad) *)
  est_fs : int;
      (** false-sharing misses on the hot lines this repair addresses *)
  space_blocks : int;
      (** exact layout growth, in blocks, of applying the delta *)
  load_est : int;  (** extra pointer loads (indirection only) *)
  score : float;
      (** est_fs - 0.25 * space_blocks - 0.05 * load_est: a block of
          layout growth costs a quarter of a miss, an injected pointer
          load a twentieth *)
}

val candidate_label : candidate -> string

val apply : Fs_layout.Plan.t -> candidate -> Fs_layout.Plan.t
(** Drop [drops], then {!Fs_layout.Plan.merge} in [adds].
    @raise Fs_layout.Plan.Plan_error on a conflicting delta. *)

val extract :
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  Falseshare.Hotlines.t ->
  candidate list
(** Read repair candidates off a hot-line report produced under [plan],
    scored and sorted best-first.  Candidates whose delta does not
    validate against the program are silently dropped; the list may pair
    alternatives for the same variable (partition vs. isolate vs. pad) —
    the refinement loop tries them in score order. *)

type iteration = {
  index : int;  (** 1-based *)
  considered : candidate list;  (** scored candidates, best first *)
  applied : candidate option;
      (** [None] only in a final round where no candidate passed the
          accept gate *)
  fs_before : int;
  fs_after : int;
  misses_before : int;
  misses_after : int;
}

type stop =
  | Zero_fs        (** no false-sharing misses remain *)
  | Exhausted      (** diagnosis produced no candidates *)
  | No_gain  (** no candidate passed the accept gate *)
  | Iteration_cap

val stop_to_string : stop -> string

type t = {
  nprocs : int;
  block : int;
  plan0 : Fs_layout.Plan.t;   (** the starting plan *)
  plan : Fs_layout.Plan.t;    (** the refined plan *)
  initial : Fs_cache.Mpcache.counts;
  final : Fs_cache.Mpcache.counts;
  iterations : iteration list;
  stop : stop;
}

val refine :
  ?options:options ->
  recorded:Falseshare.Sim.recorded ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  t
(** Run the loop, replaying [recorded] under each candidate plan on the
    Section 4 cache ({!Falseshare.Sim.replay}).  [recorded] must come from
    the same program at the same [nprocs].  Guarantees
    [final.false_sh <= initial.false_sh] and
    [misses final <= misses initial].
    @raise Fs_layout.Plan.Plan_error when [plan0] itself is invalid. *)

val accepted : t -> int
(** Number of repairs the gate accepted. *)

val removed_fraction : t -> float
(** Share of the starting plan's false-sharing misses the refinement
    removed; 0 when there were none. *)

val render : t -> string
(** Per-iteration narration plus the final plan. *)

val to_json : t -> Fs_obs.Json.t
