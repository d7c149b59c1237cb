(* The reference coherence model: the simulator engine as it stood
   before the flat-array rewrite, per-processor (block -> entry)
   hashtables, one global (block -> binfo) hashtable, and int-list LRU
   sets rebuilt with [List.filter] on every eviction and invalidation.

   It shares no protocol code with [Mpcache], so it is the oracle the
   engine's counts are checked against (test_fuzz.ml): obviously
   correct, not fast.  Tracking tables and the boxed outcome API are
   left out; totals and per-processor tallies go into [Mpcache.counts]
   records so they compare directly with the engine's. *)

module C = Fs_cache.Mpcache

let word_size = 4

type lost = Never | Evicted | Invalidated of int

type entry = {
  mutable state : int;  (* 0 = I, 1 = S, 2 = M *)
  mutable lost : lost;
  mutable last_use : int;
}

type binfo = {
  sharers : bool array;  (* per processor: holds a valid copy *)
  mutable owner : int;
  mutable last_writer : int;
  wproc : int array;
  wtime : int array;
}

type pcache = {
  entries : (int, entry) Hashtbl.t;
  sets : int list array;
}

type t = {
  cfg : C.config;
  nsets : int;
  procs : pcache array;
  blocks : (int, binfo) Hashtbl.t;
  totals : C.counts;
  per_proc : C.counts array;
  mutable time : int;
}

let create (cfg : C.config) =
  let nsets = cfg.C.cache_bytes / (cfg.C.block * cfg.C.assoc) in
  {
    cfg;
    nsets;
    procs =
      Array.init cfg.C.nprocs (fun _ ->
          { entries = Hashtbl.create 512; sets = Array.make nsets [] });
    blocks = Hashtbl.create 1024;
    totals = C.zero_counts ();
    per_proc = Array.init cfg.C.nprocs (fun _ -> C.zero_counts ());
    time = 0;
  }

let entry_of pc b =
  match Hashtbl.find_opt pc.entries b with
  | Some e -> e
  | None ->
    let e = { state = 0; lost = Never; last_use = 0 } in
    Hashtbl.add pc.entries b e;
    e

let binfo_of t b =
  match Hashtbl.find_opt t.blocks b with
  | Some bi -> bi
  | None ->
    let words = t.cfg.C.block / word_size in
    let bi =
      { sharers = Array.make t.cfg.C.nprocs false; owner = -1; last_writer = -1;
        wproc = Array.make words (-1); wtime = Array.make words 0 }
    in
    Hashtbl.add t.blocks b bi;
    bi

let invalidate t bi b ~victim =
  let pc = t.procs.(victim) in
  let e = entry_of pc b in
  e.state <- 0;
  e.lost <- Invalidated t.time;
  bi.sharers.(victim) <- false;
  if bi.owner = victim then bi.owner <- -1;
  let set = b mod t.nsets in
  pc.sets.(set) <- List.filter (fun b' -> b' <> b) pc.sets.(set);
  t.totals.C.invalidations <- t.totals.C.invalidations + 1;
  let c = t.per_proc.(victim) in
  c.C.invalidations <- c.C.invalidations + 1

let invalidate_others t bi b ~keep =
  for q = 0 to t.cfg.C.nprocs - 1 do
    if q <> keep && bi.sharers.(q) then invalidate t bi b ~victim:q
  done

let install t ~proc b =
  let pc = t.procs.(proc) in
  let set = b mod t.nsets in
  let resident = pc.sets.(set) in
  if List.length resident >= t.cfg.C.assoc then begin
    let victim =
      List.fold_left
        (fun best b' ->
          let e' = Hashtbl.find pc.entries b' in
          match best with
          | None -> Some (b', e'.last_use)
          | Some (_, lu) when e'.last_use < lu -> Some (b', e'.last_use)
          | some -> some)
        None resident
    in
    match victim with
    | None -> ()
    | Some (vb, _) ->
      let ve = Hashtbl.find pc.entries vb in
      ve.state <- 0;
      ve.lost <- Evicted;
      let vbi = binfo_of t vb in
      vbi.sharers.(proc) <- false;
      if vbi.owner = proc then vbi.owner <- -1;
      pc.sets.(set) <- List.filter (fun b' -> b' <> vb) pc.sets.(set)
  end;
  pc.sets.(set) <- b :: pc.sets.(set)

let classify_miss bi ~proc ~word e =
  match e.lost with
  | Never -> C.Cold
  | Evicted -> C.Replacement
  | Invalidated t_inv ->
    if bi.wproc.(word) >= 0 && bi.wproc.(word) <> proc
       && bi.wtime.(word) >= t_inv
    then C.True_sharing
    else C.False_sharing

let bump_kind c = function
  | C.Cold -> c.C.cold <- c.C.cold + 1
  | C.Replacement -> c.C.repl <- c.C.repl + 1
  | C.True_sharing -> c.C.true_sh <- c.C.true_sh + 1
  | C.False_sharing -> c.C.false_sh <- c.C.false_sh + 1

let sink t ~proc ~write ~addr =
  t.time <- t.time + 1;
  let b = addr / t.cfg.C.block in
  let word = addr mod t.cfg.C.block / word_size in
  let pc = t.procs.(proc) in
  let e = entry_of pc b in
  let bi = binfo_of t b in
  let count f =
    f t.totals;
    f t.per_proc.(proc)
  in
  if write then count (fun c -> c.C.writes <- c.C.writes + 1)
  else count (fun c -> c.C.reads <- c.C.reads + 1);
  let note_write () =
    bi.wproc.(word) <- proc;
    bi.wtime.(word) <- t.time;
    bi.last_writer <- proc
  in
  if write then begin
    match e.state with
    | 2 ->
      e.last_use <- t.time;
      note_write ()
    | 1 ->
      invalidate_others t bi b ~keep:proc;
      e.state <- 2;
      e.last_use <- t.time;
      bi.owner <- proc;
      note_write ();
      count (fun c -> c.C.upgrades <- c.C.upgrades + 1)
    | _ ->
      let kind = classify_miss bi ~proc ~word e in
      invalidate_others t bi b ~keep:proc;
      install t ~proc b;
      e.state <- 2;
      e.lost <- Never;
      e.last_use <- t.time;
      bi.sharers.(proc) <- true;
      bi.owner <- proc;
      note_write ();
      count (fun c -> bump_kind c kind)
  end
  else begin
    match e.state with
    | 1 | 2 -> e.last_use <- t.time
    | _ ->
      let kind = classify_miss bi ~proc ~word e in
      if bi.owner >= 0 then begin
        let oe = entry_of t.procs.(bi.owner) b in
        oe.state <- 1;
        bi.owner <- -1
      end;
      install t ~proc b;
      e.state <- 1;
      e.lost <- Never;
      e.last_use <- t.time;
      bi.sharers.(proc) <- true;
      count (fun c -> bump_kind c kind)
  end

let counts t = t.totals

let proc_counts t = t.per_proc
