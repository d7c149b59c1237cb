(** Write-invalidate multiprocessor cache simulator.

    Models the simulation architecture of Section 4 of the paper: one
    private first-level cache per processor (default 32 KB, 4-way LRU) in
    front of an infinite second-level cache, kept coherent with an MSI
    write-invalidate protocol.  The block size is a parameter (the paper
    sweeps 4–256 bytes).

    Every first-level miss is classified:
    - {b Cold} — the processor touches the block for the first time.
    - {b Replacement} — the processor's copy was evicted (capacity or
      conflict; with LRU sets the two are not distinguished).
    - {b True sharing} — the copy was invalidated by another processor,
      and the word now accessed was written by another processor while
      this processor's copy was invalid: the communication was essential.
    - {b False sharing} — the copy was invalidated, but the word now
      accessed was not written by any other processor in that interval;
      the miss exists only because unrelated data share the block, and
      would vanish with one-word blocks.

    The classification is exact at word (4-byte) granularity: the simulator
    tracks the last writer and write time of every word, and the
    invalidation time of every processor/block pair. *)

type config = {
  nprocs : int;
  block : int;        (** block size in bytes, a power of two >= 4 *)
  cache_bytes : int;  (** capacity of each processor's cache *)
  assoc : int;        (** set associativity *)
}

val default_config : nprocs:int -> block:int -> config
(** 32 KB, 4-way, as in the paper's simulations. *)

type kind = Cold | Replacement | True_sharing | False_sharing

val kind_to_string : kind -> string

type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable cold : int;
  mutable repl : int;
  mutable true_sh : int;
  mutable false_sh : int;
  mutable invalidations : int;  (** copies invalidated by remote writes *)
  mutable upgrades : int;       (** S->M transitions without data transfer *)
}

val accesses : counts -> int
val misses : counts -> int
val miss_rate : counts -> float
val false_sharing_rate : counts -> float
(** False-sharing misses per access. *)

val zero_counts : unit -> counts

val copy_counts : counts -> counts

val add_into : counts -> counts -> unit
(** [add_into dst src] accumulates [src] into [dst], field by field. *)

val sub_counts : counts -> counts -> counts
(** [sub_counts a b] is the fresh field-wise difference [a - b] — the
    delta between two snapshots of a monotone accumulator. *)

type miss_info = {
  kind : kind;
  provider : int;
      (** processor whose cache supplies the block: the current modified
          owner, else the most recent writer still holding a copy, else
          [-1] (the block comes from the infinite second level) *)
}

(** Result of one reference.  [invalidated] is the number of remote copies
    the reference destroyed — the coherence traffic it put on the
    interconnect. *)
type outcome =
  | Hit
  | Upgrade of { invalidated : int }
      (** write hit on a Shared copy: invalidations, but no data transfer *)
  | Miss of { info : miss_info; invalidated : int }

type t

(** One invalidation flow for the blame matrix: writes by [src] that
    destroyed [victim]'s copy of [block], split between upgrades (write
    hits on a Shared copy) and outright write misses. *)
type pair = {
  block : int;
  src : int;
  victim : int;
  upgrades : int;
  write_misses : int;
}

(** Lifetime of one cache line, available with [~track_lines:true]: how
    write ownership of the line moved between processors over the run.

    A {e migration} is a write whose processor differs from the line's
    previous writer; a {e ping-pong} is the strict A→B→A case where the
    line bounces straight back.  [max_run] is the length (in consecutive
    writes) of the longest alternating-writer run — every write in the run
    by a different processor than the one before — and [max_inval_chain]
    the longest streak of consecutive writes that each destroyed at least
    one remote copy.  [word_writers] is the word-level footprint: bit [p]
    of entry [w] is set when processor [p] wrote word [w]; [shared_words]
    counts words written by two or more processors, so
    [writers >= 2 && shared_words = 0] identifies a line whose write
    traffic is {e pure} false sharing (disjoint word footprints). *)
type line = {
  line_block : int;
  line_reads : int;
  line_writes : int;
  writers : int;          (** distinct writing processors *)
  readers : int;          (** distinct reading processors *)
  migrations : int;
  pingpong : int;
  max_run : int;
  max_inval_chain : int;
  written_words : int;
  shared_words : int;
  word_writers : int array;
}

val pingpong_score : line -> float
(** Migrations per write — the fraction of writes that moved the line's
    write ownership; 0 for an unwritten or single-writer line. *)

val create :
  ?track_blocks:bool ->
  ?track_pairs:bool ->
  ?track_lines:bool ->
  ?max_addr:int ->
  config ->
  t
(** The simulator state is array-dense, indexed by block id over the
    address arena.  [max_addr] presizes the arrays for an arena of that
    many bytes (pass {!Fs_layout.Layout.size} of the replayed layout);
    without it the arrays start small and grow by doubling as higher
    addresses appear.  Either way the per-reference path is
    allocation-free unless a tracking flag is on. *)

val config : t -> config

val access : t -> proc:int -> write:bool -> addr:int -> outcome
(** Simulate one reference. *)

val access_raw : t -> proc:int -> write:bool -> addr:int -> int
(** Exactly {!access}, with the outcome packed into an int so that no
    reference allocates: bits 0-2 are 0 for [Hit], 1 for [Upgrade] and
    2-5 for a [Miss] (of kind [Cold], [Replacement], [True_sharing],
    [False_sharing] in that order); bits 3-11 hold [provider + 1] of a
    miss; bits 12 and up the [invalidated] count. *)

val touch : t -> proc:int -> write:bool -> addr:int -> unit
(** Exactly {!access} minus the boxed [outcome] — the entry point of the
    fused replay loop, which needs the counters but not the per-reference
    result.  Allocation-free when no tracking flag is on. *)

val sink : t -> Fs_trace.Sink.t
(** {!touch} as a sink.  Kept for the repo benchmark ([perfbench/]),
    its only caller in the program; library code feeds caches through
    the replay engine. *)

val counts : t -> counts
(** Live totals (the record is the simulator's own accumulator). *)

val proc_counts : t -> counts array
(** Per-processor counters, always maintained: accesses and misses are
    the acting processor's, [invalidations] count copies {e this}
    processor lost to remote writes. *)

val per_block : t -> (int * counts) list
(** Per-block counters, sorted by block number.  [invalidations] are
    attributed to the block whose copies were destroyed.
    @raise Invalid_argument unless created with [~track_blocks:true] —
    a silent [[]] used to mask forgotten tracking flags. *)

val invalidation_pairs : t -> pair list
(** Who invalidates whom, per block, sorted by (block, src, victim).
    Summing [upgrades + write_misses] over all pairs equals
    [(counts t).invalidations].
    @raise Invalid_argument unless created with [~track_pairs:true]. *)

val lines : t -> line list
(** Per-line lifetime records, sorted by block number.
    @raise Invalid_argument unless created with [~track_lines:true]. *)

val state_of : t -> proc:int -> addr:int -> [ `Modified | `Shared | `Invalid ]
(** Protocol state of the block containing [addr] in [proc]'s cache
    (Invalid when never present or evicted) — for invariant tests. *)
