module Align = Fs_util.Align

let word_size = 4

type config = { nprocs : int; block : int; cache_bytes : int; assoc : int }

let default_config ~nprocs ~block =
  { nprocs; block; cache_bytes = 32 * 1024; assoc = 4 }

type kind = Cold | Replacement | True_sharing | False_sharing

let kind_to_string = function
  | Cold -> "cold"
  | Replacement -> "replacement"
  | True_sharing -> "true sharing"
  | False_sharing -> "false sharing"

type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable cold : int;
  mutable repl : int;
  mutable true_sh : int;
  mutable false_sh : int;
  mutable invalidations : int;
  mutable upgrades : int;
}

let zero_counts () =
  { reads = 0; writes = 0; cold = 0; repl = 0; true_sh = 0; false_sh = 0;
    invalidations = 0; upgrades = 0 }

let accesses c = c.reads + c.writes
let misses c = c.cold + c.repl + c.true_sh + c.false_sh

let miss_rate c =
  let a = accesses c in
  if a = 0 then 0.0 else float_of_int (misses c) /. float_of_int a

let false_sharing_rate c =
  let a = accesses c in
  if a = 0 then 0.0 else float_of_int c.false_sh /. float_of_int a

let copy_counts c =
  { reads = c.reads; writes = c.writes; cold = c.cold; repl = c.repl;
    true_sh = c.true_sh; false_sh = c.false_sh;
    invalidations = c.invalidations; upgrades = c.upgrades }

let add_into dst src =
  dst.reads <- dst.reads + src.reads;
  dst.writes <- dst.writes + src.writes;
  dst.cold <- dst.cold + src.cold;
  dst.repl <- dst.repl + src.repl;
  dst.true_sh <- dst.true_sh + src.true_sh;
  dst.false_sh <- dst.false_sh + src.false_sh;
  dst.invalidations <- dst.invalidations + src.invalidations;
  dst.upgrades <- dst.upgrades + src.upgrades

let sub_counts a b =
  { reads = a.reads - b.reads; writes = a.writes - b.writes;
    cold = a.cold - b.cold; repl = a.repl - b.repl;
    true_sh = a.true_sh - b.true_sh; false_sh = a.false_sh - b.false_sh;
    invalidations = a.invalidations - b.invalidations;
    upgrades = a.upgrades - b.upgrades }

type miss_info = { kind : kind; provider : int }

type outcome =
  | Hit
  | Upgrade of { invalidated : int }
  | Miss of { info : miss_info; invalidated : int }

(* One invalidation flow: writes by [src] that destroyed [victim]'s copy
   of a block, split by whether the write hit a Shared copy (upgrade) or
   missed outright. *)
type flow = { mutable by_upgrade : int; mutable by_miss : int }

type pair = {
  block : int;
  src : int;
  victim : int;
  upgrades : int;
  write_misses : int;
}

(* Mutable lifetime accumulator for one line; [linfo] is the working
   state, [line] below the exported snapshot. *)
type linfo = {
  mutable lreads : int;
  mutable lwrites : int;
  seen : Bytes.t;              (* per processor: bit 0 read, bit 1 wrote *)
  mutable nreaders : int;
  mutable nwriters : int;
  mutable last_w : int;        (* most recent writer, or -1 *)
  mutable prev_w : int;        (* the writer before that, or -1 *)
  mutable lmigrations : int;
  mutable lpingpong : int;
  mutable run : int;           (* current alternating-writer run, in writes *)
  mutable lmax_run : int;
  mutable ichain : int;        (* current invalidating-write streak *)
  mutable lmax_ichain : int;
  lword_writers : int list array;  (* per word, its writers, ascending *)
}

type line = {
  line_block : int;
  line_reads : int;
  line_writes : int;
  writers : int;
  readers : int;
  migrations : int;
  pingpong : int;
  max_run : int;
  max_inval_chain : int;
  written_words : int;
  shared_words : int;
  word_writers : int list array;
}

let pingpong_score l =
  if l.line_writes = 0 then 0.0
  else float_of_int l.migrations /. float_of_int l.line_writes

(* Why a processor's copy of a block went away, packed into one int:
   [lost_never] before the block was ever held, [lost_evicted] after an
   LRU eviction, and the (positive) invalidation time after a remote
   write destroyed the copy.  Times start at 1, so they never collide
   with the two sentinels — and [lost_never] is 0 so freshly grown
   storage needs no re-fill. *)
let lost_never = 0
let lost_evicted = -1

(* The simulator state is array-dense, indexed by block id over the
   layout's contiguous arena.  Fields touched by the same protocol step
   are interleaved so one reference lands on one cache line, not three:

   - per (block, proc) entry state is a (state, lost, last_use, slot)
     quad at element index [4 * (b * nprocs + p)] — 32 bytes, so two
     entries per cache line;
   - per-block coherence state is an (owner, last_writer, sharer set)
     record at [b * bstride], the sharer set one bit per processor in
     [sharer_words] words of 32 (one word up to 32 processors, a power
     of two so a processor's word and bit are a shift and a mask), and the word-level write history a (writer, time)
     pair at [2 * (b * words_per_block + w)];
   - LRU sets are fixed [assoc]-wide slot arrays per (proc, set),
     updated in place (free slots hold -1); each resident entry's
     [slot] field caches its absolute index into [slots], making
     invalidation-time removal O(1).

   Owners and writers are stored as [proc + 1] with 0 meaning none, so
   every growable array zero-fills and growth is a single blit.  An
   access allocates only when a tracking flag is on: a block's first
   touch on a [track_blocks] cache allocates its counts, and the blame
   pairs and line lifetimes stay hash-based, since they are opt-in and
   off the untracked hot path. *)
type t = {
  cfg : config;
  nsets : int;
  nprocs : int;             (* = cfg.nprocs, unboxed copy for the hot path *)
  assoc : int;              (* = cfg.assoc, likewise *)
  block_shift : int;        (* log2 block *)
  word_mask : int;          (* block - 1 *)
  set_mask : int;           (* nsets - 1 when nsets is a power of two, else 0 *)
  words : int;              (* words per block *)
  sharer_words : int;       (* ceil (nprocs / sharer_bits) *)
  bstride : int;            (* 2 + sharer_words *)
  mutable cap : int;        (* block ids currently backed by the arrays *)
  (* per (block, proc): state (0 = I, 1 = S, 2 = M), lost, last_use,
     and the absolute [slots] index while resident *)
  mutable ent : int array;
  (* per block: owner + 1, last_writer + 1, then the sharer set (bit
     [p land 31] of word [p lsr 5]: p holds a valid copy) *)
  mutable blk : int array;
  (* per (block, word): last writing processor + 1, time of that write *)
  mutable wrd : int array;
  (* per (proc, set, way), stride nsets * assoc per proc *)
  slots : int array;          (* resident block id, or -1 *)
  totals : counts;
  per_proc : counts array;
  track_blocks : bool;
  (* per block when [track_blocks] (else empty): its counts, [None]
     until the block is first touched *)
  mutable bcounts : counts option array;
  pair_tbl : (int * int * int, flow) Hashtbl.t option;  (* block, src, victim *)
  line_tbl : (int, linfo) Hashtbl.t option;
  mutable time : int;
}

let sharer_bits = 32

let create ?(track_blocks = false) ?(track_pairs = false)
    ?(track_lines = false) ?max_addr (cfg : config) =
  if not (Align.is_power_of_two cfg.block) || cfg.block < word_size then
    invalid_arg "Mpcache.create: block must be a power of two >= 4";
  if cfg.assoc <= 0 || cfg.cache_bytes < cfg.block * cfg.assoc then
    invalid_arg "Mpcache.create: cache too small for one set";
  let nsets = cfg.cache_bytes / (cfg.block * cfg.assoc) in
  let log2 n =
    let rec go s n = if n <= 1 then s else go (s + 1) (n lsr 1) in
    go 0 n
  in
  let words = cfg.block / word_size in
  let sharer_words = (cfg.nprocs + sharer_bits - 1) / sharer_bits in
  let cap =
    match max_addr with
    | Some a when a > 0 -> ((a - 1) / cfg.block) + 1
    | _ -> 1024
  in
  {
    cfg;
    nsets;
    nprocs = cfg.nprocs;
    assoc = cfg.assoc;
    block_shift = log2 cfg.block;
    word_mask = cfg.block - 1;
    set_mask = (if Align.is_power_of_two nsets then nsets - 1 else 0);
    words;
    sharer_words;
    bstride = 2 + sharer_words;
    cap;
    ent = Array.make (cap * cfg.nprocs * 4) 0;
    blk = Array.make (cap * (2 + sharer_words)) 0;
    wrd = Array.make (cap * words * 2) 0;
    slots = Array.make (cfg.nprocs * nsets * cfg.assoc) (-1);
    totals = zero_counts ();
    per_proc = Array.init cfg.nprocs (fun _ -> zero_counts ());
    track_blocks;
    bcounts = (if track_blocks then Array.make cap None else [||]);
    pair_tbl = (if track_pairs then Some (Hashtbl.create 256) else None);
    line_tbl = (if track_lines then Some (Hashtbl.create 256) else None);
    time = 0;
  }

let config t = t.cfg

(* Double the backing arrays until block id [b] fits; strides are fixed
   and zero means "empty" everywhere, so old contents move with a single
   blit per array. *)
let grow t b =
  let cap = ref t.cap in
  while b >= !cap do
    cap := !cap * 2
  done;
  let cap = !cap in
  let extend stride old =
    let bigger = Array.make (cap * stride) 0 in
    Array.blit old 0 bigger 0 (t.cap * stride);
    bigger
  in
  t.ent <- extend (t.nprocs * 4) t.ent;
  t.blk <- extend t.bstride t.blk;
  t.wrd <- extend (t.words * 2) t.wrd;
  if t.track_blocks then begin
    let bigger = Array.make cap None in
    Array.blit t.bcounts 0 bigger 0 t.cap;
    t.bcounts <- bigger
  end;
  t.cap <- cap

let set_index t b =
  if t.set_mask <> 0 then b land t.set_mask else b mod t.nsets

(* [p]'s word of the sharer set of the block at [o] in [blk] (that is,
   [o = b * bstride]), and [p]'s bit in it *)
let[@inline] sharer_index o p = o + 2 + (p lsr 5)
let[@inline] sharer_bit p = 1 lsl (p land 31)

let[@inline] drop_sharer t o p =
  let i = sharer_index o p in
  Array.unsafe_set t.blk i (Array.unsafe_get t.blk i land lnot (sharer_bit p));
  (* a lost copy is no longer the owner's *)
  if Array.unsafe_get t.blk o = p + 1 then Array.unsafe_set t.blk o 0

(* only on a tracking cache, and for [b < cap] *)
let block_counts t b =
  match Array.unsafe_get t.bcounts b with
  | Some c -> c
  | None ->
    let c = zero_counts () in
    Array.unsafe_set t.bcounts b (Some c);
    c

let linfo_of t tbl b =
  match Hashtbl.find_opt tbl b with
  | Some l -> l
  | None ->
    let l =
      { lreads = 0; lwrites = 0; seen = Bytes.make t.nprocs '\000';
        nreaders = 0; nwriters = 0; last_w = -1; prev_w = -1;
        lmigrations = 0; lpingpong = 0; run = 0; lmax_run = 0; ichain = 0;
        lmax_ichain = 0; lword_writers = Array.make t.words [] }
    in
    Hashtbl.add tbl b l;
    l

(* Marks [proc] in [l.seen] under [bit]; true when it was not yet. *)
let first_seen l proc bit =
  let s = Char.code (Bytes.get l.seen proc) in
  s land bit = 0
  && (Bytes.set l.seen proc (Char.chr (s lor bit));
      true)

let rec insert_sorted (p : int) = function
  | q :: rest when q < p -> q :: insert_sorted p rest
  | l -> p :: l

(* Lifetime bookkeeping for one reference, after the protocol has acted
   on it ([invalidated] remote copies were destroyed by this write). *)
let note_line t ~proc ~write ~word ~invalidated b =
  match t.line_tbl with
  | None -> ()
  | Some tbl ->
    let l = linfo_of t tbl b in
    if write then begin
      l.lwrites <- l.lwrites + 1;
      if first_seen l proc 2 then l.nwriters <- l.nwriters + 1;
      let ws = l.lword_writers.(word) in
      if not (List.mem proc ws) then
        l.lword_writers.(word) <- insert_sorted proc ws;
      if l.last_w >= 0 && l.last_w <> proc then begin
        l.lmigrations <- l.lmigrations + 1;
        if l.prev_w = proc then l.lpingpong <- l.lpingpong + 1;
        (* a run starts at 2 writes: the previous one and this one *)
        l.run <- (if l.run = 0 then 2 else l.run + 1);
        if l.run > l.lmax_run then l.lmax_run <- l.run
      end
      else l.run <- 0;
      l.prev_w <- l.last_w;
      l.last_w <- proc;
      if invalidated > 0 then begin
        l.ichain <- l.ichain + 1;
        if l.ichain > l.lmax_ichain then l.lmax_ichain <- l.ichain
      end
      else l.ichain <- 0
    end
    else begin
      l.lreads <- l.lreads + 1;
      if first_seen l proc 1 then l.nreaders <- l.nreaders + 1
    end

(* Remove [victim]'s copy because a write by [src] invalidated it.
   [cause] distinguishes upgrades (write hits on a Shared copy) from
   outright write misses, for the blame matrix.  The victim holds a
   valid copy (it is in the sharer set), so its cached slot index is
   current and the LRU removal is a single store. *)
let invalidate t b ~o ~src ~victim ~cause =
  let e = ((b * t.nprocs) + victim) * 4 in
  Array.unsafe_set t.ent e 0;
  Array.unsafe_set t.ent (e + 1) t.time;
  drop_sharer t o victim;
  Array.unsafe_set t.slots (Array.unsafe_get t.ent (e + 3)) (-1);
  (* the caller batches [totals.invalidations] over all victims *)
  let c = t.per_proc.(victim) in
  c.invalidations <- c.invalidations + 1;
  if t.track_blocks then begin
    let c = block_counts t b in
    c.invalidations <- c.invalidations + 1
  end;
  match t.pair_tbl with
  | None -> ()
  | Some tbl ->
    let key = (b, src, victim) in
    let f =
      match Hashtbl.find_opt tbl key with
      | Some f -> f
      | None ->
        let f = { by_upgrade = 0; by_miss = 0 } in
        Hashtbl.add tbl key f;
        f
    in
    (match cause with
     | `Upgrade -> f.by_upgrade <- f.by_upgrade + 1
     | `Wmiss -> f.by_miss <- f.by_miss + 1)

let invalidate_others t b ~o ~keep ~cause =
  (* walk each word of the sharer set, stopping after its highest set
     bit; [invalidate] clears bits in the set, not in the copy [m] *)
  let n = ref 0 in
  let base = o + 2 in
  for k = 0 to t.sharer_words - 1 do
    let m = ref (Array.unsafe_get t.blk (base + k)) in
    let q = ref (k * sharer_bits) in
    while !m <> 0 do
      if !m land 1 <> 0 && !q <> keep then begin
        invalidate t b ~o ~src:keep ~victim:!q ~cause;
        incr n
      end;
      m := !m lsr 1;
      incr q
    done
  done;
  if !n > 0 then t.totals.invalidations <- t.totals.invalidations + !n;
  !n

(* Make room in [proc]'s set for block [b] and insert it.  The LRU victim
   is unique: [last_use] times are distinct access times, so the scan
   order cannot change which block is evicted. *)
let install t ~proc b ~e =
  let base = ((proc * t.nsets) + set_index t b) * t.assoc in
  let free = ref (-1) in
  let victim_i = ref (-1) in
  let victim_lu = ref max_int in
  for i = 0 to t.assoc - 1 do
    let b' = Array.unsafe_get t.slots (base + i) in
    if b' < 0 then begin
      if !free < 0 then free := i
    end
    else begin
      let lu = Array.unsafe_get t.ent ((((b' * t.nprocs) + proc) * 4) + 2) in
      if lu < !victim_lu then begin
        victim_lu := lu;
        victim_i := i
      end
    end
  done;
  let si =
    if !free >= 0 then base + !free
    else begin
      let vb = Array.unsafe_get t.slots (base + !victim_i) in
      let ve = ((vb * t.nprocs) + proc) * 4 in
      Array.unsafe_set t.ent ve 0;
      Array.unsafe_set t.ent (ve + 1) lost_evicted;
      drop_sharer t (vb * t.bstride) proc;
      base + !victim_i
    end
  in
  Array.unsafe_set t.slots si b;
  Array.unsafe_set t.ent (e + 3) si

(* [e] is the entry triple's base index, [w2] the word pair's. *)
let classify_miss t ~proc ~w2 e =
  let lost = Array.unsafe_get t.ent (e + 1) in
  if lost = lost_never then Cold
  else if lost = lost_evicted then Replacement
  else
    (* invalidated at time [lost] *)
    let wp = Array.unsafe_get t.wrd w2 - 1 in
    if wp >= 0 && wp <> proc && Array.unsafe_get t.wrd (w2 + 1) >= lost then
      True_sharing
    else False_sharing

let provider_of t o =
  let owner = Array.unsafe_get t.blk o - 1 in
  if owner >= 0 then owner
  else
    let lw = Array.unsafe_get t.blk (o + 1) - 1 in
    if lw >= 0
       && Array.unsafe_get t.blk (sharer_index o lw) land sharer_bit lw <> 0
    then lw
    else -1

let bump_kind c = function
  | Cold -> c.cold <- c.cold + 1
  | Replacement -> c.repl <- c.repl + 1
  | True_sharing -> c.true_sh <- c.true_sh + 1
  | False_sharing -> c.false_sh <- c.false_sh + 1

(* The raw protocol step.  Returns the outcome packed into an int —
   bits 0-2 a code (0 hit, 1 upgrade, 2-5 a miss of that [kind]),
   bits 3-11 [provider + 1], bits 12+ the invalidation count — so the
   replay loop pays no allocation; {!access} below re-boxes it. *)
let kind_code = function
  | Cold -> 2
  | Replacement -> 3
  | True_sharing -> 4
  | False_sharing -> 5

(* the index of the (writer, time) pair of [addr]'s word in block [b] *)
let[@inline] word_pair t b addr =
  ((b * t.words) + ((addr land t.word_mask) lsr 2)) * 2

(* [proc] wrote [addr]'s word of block [b] at [time] *)
let[@inline] note_write t b ~proc ~addr ~time =
  let w2 = word_pair t b addr in
  Array.unsafe_set t.wrd w2 (proc + 1);
  Array.unsafe_set t.wrd (w2 + 1) time;
  Array.unsafe_set t.blk ((b * t.bstride) + 1) (proc + 1)

(* one read or write by [proc] of block [b], in every tally that keeps it *)
let[@inline] count_access t b ~proc ~write =
  let pp = Array.unsafe_get t.per_proc proc in
  if write then begin
    t.totals.writes <- t.totals.writes + 1;
    pp.writes <- pp.writes + 1
  end
  else begin
    t.totals.reads <- t.totals.reads + 1;
    pp.reads <- pp.reads + 1
  end;
  if t.track_blocks then begin
    let c = block_counts t b in
    if write then c.writes <- c.writes + 1 else c.reads <- c.reads + 1
  end

(* The range check that licenses the unsafe accesses of {!hit} and
   {!miss}: block [b] is backed by the arrays ([b < cap]; a negative
   address shifts to a huge [b]) and [0 <= proc < nprocs]. *)
let[@inline] in_range t ~proc b = b < t.cap && proc >= 0 && proc < t.nprocs

(* The one hit implementation, shared by {!access_raw} and {!walk}: a
   read of a valid copy or a write to a Modified one, which moves no
   coherence state.  It accounts the reference and returns true, or
   changes nothing and returns false, leaving the reference to {!miss}.
   [e] is [proc]'s entry of block [b], which {!in_range} admits.  The
   arrays are read from [t] on every reference, not held in locals
   across the loop: OCaml saves no register across a call, so a local
   costs a spill and a reload around every miss, which measured slower
   on miss-heavy replays than the field loads it saves. *)
let[@inline] hit t ~proc ~write ~addr b e =
  let s = Array.unsafe_get t.ent e in
  if s = 0 || (write && s = 1) then false
  else begin
    let time = t.time + 1 in
    t.time <- time;
    Array.unsafe_set t.ent (e + 2) time;
    if write then note_write t b ~proc ~addr ~time;
    count_access t b ~proc ~write;
    true
  end

(* Every reference {!hit} declines: a read or write miss, or a write to
   a Shared copy (an upgrade), on [proc]'s entry [e] of block [b]. *)
let miss t ~proc ~write ~addr b e =
  t.time <- t.time + 1;
  let o = b * t.bstride in
  count_access t b ~proc ~write;
  let pp = Array.unsafe_get t.per_proc proc in
  if write && Array.unsafe_get t.ent e = 1 then begin
    (* write hit on a shared copy: upgrade, invalidating other sharers *)
    let invalidated = invalidate_others t b ~o ~keep:proc ~cause:`Upgrade in
    Array.unsafe_set t.ent e 2;
    Array.unsafe_set t.ent (e + 2) t.time;
    Array.unsafe_set t.blk o (proc + 1);
    note_write t b ~proc ~addr ~time:t.time;
    t.totals.upgrades <- t.totals.upgrades + 1;
    pp.upgrades <- pp.upgrades + 1;
    if t.track_blocks then begin
      let c = block_counts t b in
      c.upgrades <- c.upgrades + 1
    end;
    1 lor (invalidated lsl 12)
  end
  else begin
    let kind = classify_miss t ~proc ~w2:(word_pair t b addr) e in
    let provider = provider_of t o in
    let invalidated =
      if write then invalidate_others t b ~o ~keep:proc ~cause:`Wmiss
      else begin
        (* a modified copy elsewhere is downgraded to shared *)
        let owner = Array.unsafe_get t.blk o - 1 in
        if owner >= 0 then begin
          Array.unsafe_set t.ent (((b * t.nprocs) + owner) * 4) 1;
          Array.unsafe_set t.blk o 0
        end;
        0
      end
    in
    install t ~proc b ~e;
    Array.unsafe_set t.ent e (if write then 2 else 1);
    Array.unsafe_set t.ent (e + 1) lost_never;
    Array.unsafe_set t.ent (e + 2) t.time;
    let s = sharer_index o proc in
    Array.unsafe_set t.blk s (Array.unsafe_get t.blk s lor sharer_bit proc);
    if write then begin
      Array.unsafe_set t.blk o (proc + 1);
      note_write t b ~proc ~addr ~time:t.time
    end;
    bump_kind t.totals kind;
    bump_kind pp kind;
    if t.track_blocks then bump_kind (block_counts t b) kind;
    kind_code kind lor ((provider + 1) lsl 3) lor (invalidated lsl 12)
  end

(* A reference outside the arrays: a bad processor or address is
   refused, a block past the arrays grows them. *)
let outside t ~proc ~write ~addr =
  if proc < 0 || proc >= t.nprocs || addr < 0 then
    invalid_arg "Mpcache.access: processor id or address out of range";
  let b = addr lsr t.block_shift in
  grow t b;
  miss t ~proc ~write ~addr b (((b * t.nprocs) + proc) * 4)

(* One reference without the line hook: a plain hit in place (0), or
   the miss path's packed outcome. *)
let[@inline] step t ~proc ~write ~addr =
  let b = addr lsr t.block_shift in
  if in_range t ~proc b then
    let e = ((b * t.nprocs) + proc) * 4 in
    if hit t ~proc ~write ~addr b e then 0 else miss t ~proc ~write ~addr b e
  else outside t ~proc ~write ~addr

let access_raw t ~proc ~write ~addr =
  let raw = step t ~proc ~write ~addr in
  (match t.line_tbl with
   | None -> ()
   | Some _ ->
     note_line t ~proc ~write
       ~word:((addr land t.word_mask) lsr 2)
       ~invalidated:(raw lsr 12)
       (addr lsr t.block_shift));
  raw

let touch t ~proc ~write ~addr = ignore (access_raw t ~proc ~write ~addr : int)

let kind_of_code = function
  | 2 -> Cold
  | 3 -> Replacement
  | 4 -> True_sharing
  | _ -> False_sharing

let access t ~proc ~write ~addr =
  let raw = access_raw t ~proc ~write ~addr in
  match raw land 7 with
  | 0 -> Hit
  | 1 -> Upgrade { invalidated = raw lsr 12 }
  | code ->
    Miss
      { info = { kind = kind_of_code code; provider = ((raw lsr 3) land 0x1ff) - 1 };
        invalidated = raw lsr 12 }

let sink t ~proc ~write ~addr = touch t ~proc ~write ~addr

(* ------------------------------------------------------------------ *)
(* The replay engine's per-event loop, next to the state it updates.
   The field shifts are written inline, not through the
   [Cell_event.packed_*] accessors: the dev profile compiles every
   library [-opaque], so each accessor would be an indirect call per
   event.  They mirror the bit layout documented in [Cell_event] (tag
   bits 0-2, write bit 3, proc bits 4-11, var bits 12-19, cell bits
   20+, a work event's amount bits 12+); the replay = listener property
   tests and the pack/unpack round trip pin them down. *)

(* One reference of {!walk}, its packed outcome: [step] in place, or
   {!access_raw} for every reference of a line-tracking cache. *)
let[@inline] reference t ~lines ~proc ~write ~addr =
  if lines then access_raw t ~proc ~write ~addr else step t ~proc ~write ~addr

(* [reference] on a clocked walk: a hit costs [hit_cycles] in place *)
let[@inline] clocked t ~lines ~clock ~hit_cycles ~charge ~proc ~write ~addr =
  let raw = reference t ~lines ~proc ~write ~addr in
  if raw = 0 then clock.(proc) <- clock.(proc) + hit_cycles
  else charge ~proc ~addr raw

(* Two loops, so the common untimed one keeps few values live across
   the miss call; each reads an access's pointer cell, when the layout
   has one, before the data reference it redirects. *)
let walk t ~addr ~extra ~clock ~hit_cycles ~work_cpi ~charge ~other data lo
    hi =
  (* a line-tracking cache takes [access_raw] for every access *)
  let lines = Option.is_some t.line_tbl in
  let has_extra = Array.length extra > 0 in
  if Array.length clock = 0 then
    for i = lo to hi - 1 do
      let packed = Array.unsafe_get data i in
      let tag = packed land 7 in
      if tag = 0 then begin
        let proc = (packed lsr 4) land 0xff in
        let var = (packed lsr 12) land 0xff and cell = packed lsr 20 in
        if has_extra then begin
          let ex = extra.(var) in
          if Array.length ex > 0 && ex.(cell) >= 0 then
            ignore (reference t ~lines ~proc ~write:false ~addr:ex.(cell) : int)
        end;
        ignore
          (reference t ~lines ~proc ~write:(packed land 8 <> 0)
             ~addr:addr.(var).(cell)
            : int)
      end
      else if tag <> 1 then other packed
    done
  else
    for i = lo to hi - 1 do
      let packed = Array.unsafe_get data i in
      let tag = packed land 7 and proc = (packed lsr 4) land 0xff in
      if tag = 0 then begin
        let var = (packed lsr 12) land 0xff and cell = packed lsr 20 in
        if has_extra then begin
          let ex = extra.(var) in
          if Array.length ex > 0 && ex.(cell) >= 0 then
            clocked t ~lines ~clock ~hit_cycles ~charge ~proc ~write:false
              ~addr:ex.(cell)
        end;
        clocked t ~lines ~clock ~hit_cycles ~charge ~proc
          ~write:(packed land 8 <> 0) ~addr:addr.(var).(cell)
      end
      else if tag = 1 then
        clock.(proc) <- clock.(proc) + ((packed lsr 12) * work_cpi)
      else other packed
    done

let counts t = t.totals

let proc_counts t = t.per_proc

let tracking_off what flag =
  invalid_arg
    (Printf.sprintf
       "Mpcache.%s: cache was created without ~%s:true, nothing was recorded"
       what flag)

let invalidation_pairs t =
  match t.pair_tbl with
  | None -> tracking_off "invalidation_pairs" "track_pairs"
  | Some tbl ->
    Hashtbl.fold
      (fun (block, src, victim) f acc ->
        { block; src; victim; upgrades = f.by_upgrade; write_misses = f.by_miss }
        :: acc)
      tbl []
    |> List.sort (fun a b ->
           compare (a.block, a.src, a.victim) (b.block, b.src, b.victim))

let per_block t =
  if not t.track_blocks then tracking_off "per_block" "track_blocks"
  else begin
    let acc = ref [] in
    for b = t.cap - 1 downto 0 do
      match t.bcounts.(b) with Some c -> acc := (b, c) :: !acc | None -> ()
    done;
    !acc
  end

let lines t =
  match t.line_tbl with
  | None -> tracking_off "lines" "track_lines"
  | Some tbl ->
    Hashtbl.fold
      (fun b (l : linfo) acc ->
        let written = ref 0 and shared = ref 0 in
        Array.iter
          (function
            | [] -> ()
            | [ _ ] -> incr written
            | _ -> incr written; incr shared)
          l.lword_writers;
        { line_block = b;
          line_reads = l.lreads;
          line_writes = l.lwrites;
          writers = l.nwriters;
          readers = l.nreaders;
          migrations = l.lmigrations;
          pingpong = l.lpingpong;
          max_run = l.lmax_run;
          max_inval_chain = l.lmax_ichain;
          written_words = !written;
          shared_words = !shared;
          word_writers = Array.copy l.lword_writers }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.line_block b.line_block)

let state_of t ~proc ~addr =
  let b = addr lsr t.block_shift in
  if b >= t.cap then `Invalid
  else
    match t.ent.(((b * t.nprocs) + proc) * 4) with
    | 2 -> `Modified
    | 1 -> `Shared
    | _ -> `Invalid
