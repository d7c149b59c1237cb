(** Recorded layout-free traces.

    A cell trace is the durable form of one interpreted execution: the
    packed {!Cell_event} stream in program order plus the variable-id ->
    name table and the processor count it was recorded with.  Because the
    interpreter's schedule is layout-independent, a single trace replays
    under {e any} layout of the same program — the trace-once /
    replay-many contract the experiment drivers build on. *)

type t

val create : vars:string array -> nprocs:int -> t
(** [vars] maps variable ids (indices) to global names — the program's
    declaration order.
    @raise Invalid_argument on a non-positive [nprocs] or more than 256
    variables. *)

val recorder : t -> Cell_listener.t
(** Appends every delivered event to the trace.  Recording fills chunks;
    the first read joins them into one array (one copy). *)

val compact : t -> unit
(** Join the recorded chunks now rather than on the first read, so a
    recording's cost stays with the recording. *)

val vars : t -> string array
val nprocs : t -> int
val length : t -> int

val var_id : t -> string -> int option

val get : t -> int -> Cell_event.t
(** @raise Invalid_argument out of range. *)

val iter : (Cell_event.t -> unit) -> t -> unit
val iter_packed : (int -> unit) -> t -> unit
val deliver : t -> Cell_listener.t -> unit
(** Re-deliver the recorded stream, in order. *)

val unsafe_data : t -> int array
(** The packed events, [length t] of them, in one array that must not be
    mutated; it is exposed so the fused replay loop can iterate without a
    per-event closure call. *)

val equal : t -> t -> bool

(** {1 Capture to disk}

    One little-endian binary format ("FSTRACE2"), written atomically
    (temp file + rename): events grouped into fixed-size blocks, each
    block delta + LEB128-varint encoded with a footer carrying its event
    count, payload length and CRC-32, plus a trailing index mapping
    block starts and [Barrier_release] positions to file offsets (so
    replay can seek to an epoch without scanning).  Block delta state
    resets at each boundary, making blocks independently — and
    concurrently — decodable. *)

exception Corrupt of string

val default_block_events : int
(** Events per block unless overridden: 65536. *)

val write_file : ?block_events:int -> t -> string -> unit
(** Runs the {!Writer} lifecycle over the trace: on any failure the temp
    file is removed and nothing is renamed into place.
    @raise Invalid_argument on an event whose proc or var exceeds the
    header, or on a bad [block_events]. *)

val read_file : string -> t
(** @raise Corrupt on malformed input, [Unix.Unix_error] on IO failure. *)

(** {1 Streaming capture}

    Record straight to disk — header first, then blocks as they fill —
    so a recording's heap cost is one encoder block, not the trace.
    This is what makes 10{^8}-event captures practical. *)

module Writer : sig
  type t

  val create :
    ?block_events:int ->
    vars:string array ->
    nprocs:int ->
    string ->
    t
  (** Open a streaming writer targeting [path] (written as
      [path ^ ".tmp"], renamed on {!close}).
      @raise Invalid_argument on bad [nprocs] / [vars] /
      [block_events]. *)

  val push : t -> int -> unit
  (** Append one packed event.
      @raise Invalid_argument after {!close} / {!abort}. *)

  val recorder : t -> Cell_listener.t
  (** A listener that pushes every delivered event — plug it into
      [Interp.run_cells] to record without materializing the trace. *)

  val length : t -> int
  (** Events pushed so far. *)

  val close : t -> unit
  (** Flush the last block, write index + trailer, and atomically rename
      into place.  If any of that fails the temp file is removed and the
      exception re-raised. *)

  val abort : t -> unit
  (** Discard: close and delete the temp file.  Idempotent, as is
      {!close}; whichever runs first wins. *)
end

(** {1 Streaming replay}

    For traces too large to hold in memory: a sequence of blocks, each
    decoded on demand into a caller buffer, so peak heap is bounded by
    the block size however long the trace.  Each block is read from the
    file when it is decoded, CRC-checked against its footer and located
    through the trailing index; the header and index geometry are
    validated eagerly at open time.  A stream holds the file open until
    {!Stream.close}. *)

module Stream : sig
  type t

  val open_file : string -> t
  (** @raise Corrupt on malformed or truncated input,
      [Unix.Unix_error] on IO failure. *)

  val vars : t -> string array
  val nprocs : t -> int

  val length : t -> int
  (** Total events in the trace (not one block). *)

  val byte_size : t -> int
  (** Size of the underlying file in bytes — the denominator for
      bytes/event and effective-bandwidth reporting. *)

  val nblocks : t -> int

  val max_block_events : t -> int
  (** The file's block size, an upper bound on the events of any block —
      the buffer size {!decode_block} requires.  At least 1. *)

  val epochs : t -> int array
  (** The global event position of every [Barrier_release], in order,
      from the index — the seek points for epoch-addressed consumers. *)

  val decode_block : t -> int -> int array -> int
  (** [decode_block t k buf] decodes block [k] into [buf.(0 .. n - 1)]
      and returns [n].  Scratch state is per call, so distinct blocks of
      one open stream may be decoded from different domains
      concurrently.
      @raise Corrupt on a damaged block (the message names it),
      [Invalid_argument] if closed, [k] is out of range, or [buf] is
      smaller than {!max_block_events}. *)

  val iter_chunks : (int array -> int -> unit) -> t -> unit
  (** [iter_chunks f s] calls [f buf n] for each successive block: the
      packed events are [buf.(0 .. n - 1)], in trace order.  [buf] is
      {e one reused array} — callers must consume (or copy) its contents
      before returning, and must not hold references to it across
      calls. *)

  val close : t -> unit
  (** Close the file.  Further iteration ([iter_chunks] /
      [decode_block]) raises [Invalid_argument].  Idempotent. *)
end

val of_file_stream : string -> Stream.t
(** Alias for {!Stream.open_file}. *)
