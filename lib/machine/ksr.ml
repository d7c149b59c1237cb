module Mpcache = Fs_cache.Mpcache
module Listener = Fs_trace.Listener

type config = {
  nprocs : int;
  ring_size : int;
  block : int;
  cache_bytes : int;
  assoc : int;
  work_cpi : int;
  hit_cycles : int;
  same_ring_latency : int;
  cross_ring_latency : int;
  upgrade_latency : int;
  occupancy : int;
  ring_occupancy : int;
  inval_occupancy : int;
  barrier_base : int;
  barrier_slope : int;
}

let default_config ~nprocs =
  {
    nprocs;
    ring_size = 32;
    block = 128;
    cache_bytes = 256 * 1024;
    assoc = 4;
    work_cpi = 4;
    hit_cycles = 1;
    same_ring_latency = 175;
    cross_ring_latency = 600;
    upgrade_latency = 90;
    occupancy = 40;
    ring_occupancy = 8;
    inval_occupancy = 60;
    barrier_base = 400;
    barrier_slope = 25;
  }

type result = {
  cycles : int;
  per_proc : int array;
  mem_stall : int array;
  sync_stall : int array;
  lock_stall : int array;
  cache : Mpcache.counts;
}

type t = {
  cfg : config;
  cache : Mpcache.t;
  clock : int array;
  mem_stall : int array;
  sync_stall : int array;
  lock_stall : int array;
  mutable busy_until : int array;  (* block -> cycle it finishes serving *)
  mutable phase_anchor : int;  (* wall time at which the current phase began *)
  mutable ring_cycles : int;   (* interconnect occupancy accrued this phase *)
  at_barrier : bool array;
}

let create cfg =
  {
    cfg;
    cache =
      Mpcache.create
        {
          Mpcache.nprocs = cfg.nprocs;
          block = cfg.block;
          cache_bytes = cfg.cache_bytes;
          assoc = cfg.assoc;
        };
    clock = Array.make cfg.nprocs 0;
    mem_stall = Array.make cfg.nprocs 0;
    sync_stall = Array.make cfg.nprocs 0;
    lock_stall = Array.make cfg.nprocs 0;
    busy_until = Array.make 256 0;
    phase_anchor = 0;
    ring_cycles = 0;
    at_barrier = Array.make cfg.nprocs false;
  }

let ring t proc = proc / t.cfg.ring_size

(* Latency of fetching a block supplied by [provider] (or its home node
   when the infinite second level supplies it). *)
let transfer_latency t ~proc ~provider ~block =
  let src = if provider >= 0 then provider else block mod t.cfg.nprocs in
  if ring t proc = ring t src then t.cfg.same_ring_latency
  else t.cfg.cross_ring_latency

(* Every coherence transaction occupies the interconnect, which serves one
   transaction at a time.  Per-processor clocks advance out of order, so
   rather than a cycle-accurate queue the model enforces the constraint at
   the synchronization points: a phase cannot complete faster than the
   serial interconnect time of the coherence traffic it generated (see
   [barrier_release]).  Invalidation traffic from false sharing grows with
   the number of sharers, which is what turns it into the machine-wide
   scalability bottleneck of Section 5. *)
let ring_charge t ~invalidated =
  t.ring_cycles <-
    t.ring_cycles + t.cfg.ring_occupancy + (invalidated * t.cfg.inval_occupancy)

let miss_cost t ~proc ~block ~invalidated latency =
  (* Serialize concurrent misses to the same block: a request arriving
     while the block is still serving an earlier one queues behind it.
     The queueing delay is capped at a full round of waiters, which also
     bounds the effect of cross-processor clock skew. *)
  if block >= Array.length t.busy_until then
    t.busy_until <- Array.append t.busy_until (Array.make (block + 1) 0);
  let busy = t.busy_until.(block) in
  let queued =
    if busy > t.clock.(proc) then
      min (busy - t.clock.(proc)) (t.cfg.occupancy * t.cfg.nprocs)
    else 0
  in
  t.busy_until.(block) <- max t.clock.(proc) busy + t.cfg.occupancy;
  ring_charge t ~invalidated;
  queued + latency

let charge t ~proc ~addr raw =
  let cost =
    match raw land 7 with
    | 0 -> t.cfg.hit_cycles
    | 1 ->
      ring_charge t ~invalidated:(raw lsr 12);
      t.cfg.upgrade_latency
    | _ ->
      let block = addr / t.cfg.block in
      miss_cost t ~proc ~block ~invalidated:(raw lsr 12)
        (transfer_latency t ~proc ~provider:(((raw lsr 3) land 0x1ff) - 1)
           ~block)
  in
  t.clock.(proc) <- t.clock.(proc) + cost;
  if cost > t.cfg.hit_cycles then
    t.mem_stall.(proc) <- t.mem_stall.(proc) + cost - t.cfg.hit_cycles

let barrier_release t =
  let latest = ref 0 and any = ref false in
  Array.iteri
    (fun p at ->
      if at then begin
        any := true;
        if t.clock.(p) > !latest then latest := t.clock.(p)
      end)
    t.at_barrier;
  if !any then begin
    (* Interconnect contention: the phase's coherence traffic passes
       through the ring one transaction at a time, so the phase cannot
       complete faster than the serial time of that traffic.  Invalidation
       counts grow with the processor count (more sharers reacquire each
       falsely shared block between writes), which is the memory
       contention that reverses the unoptimized programs' speedup curves
       (Section 5). *)
    let serial_floor = t.phase_anchor + t.ring_cycles in
    let resume =
      max !latest serial_floor
      + t.cfg.barrier_base
      + (t.cfg.barrier_slope * t.cfg.nprocs)
    in
    Array.iteri
      (fun p at ->
        if at then begin
          t.sync_stall.(p) <- t.sync_stall.(p) + resume - t.clock.(p);
          t.clock.(p) <- resume;
          t.at_barrier.(p) <- false
        end)
      t.at_barrier;
    t.phase_anchor <- resume;
    t.ring_cycles <- 0
  end

let listener t =
  {
    Listener.access =
      (fun ~proc ~write ~addr ->
        charge t ~proc ~addr (Mpcache.access_raw t.cache ~proc ~write ~addr));
    work =
      (fun ~proc ~amount ->
        t.clock.(proc) <- t.clock.(proc) + (amount * t.cfg.work_cpi));
    barrier_arrive = (fun ~proc -> t.at_barrier.(proc) <- true);
    barrier_release = (fun () -> barrier_release t);
    lock_wait = (fun ~proc:_ ~addr:_ -> ());
    lock_grant =
      (fun ~proc ~addr:_ ~from ->
        (* A contended lock hands over no earlier than its release. *)
        if from >= 0 && t.clock.(from) > t.clock.(proc) then begin
          let stall = t.clock.(from) - t.clock.(proc) in
          t.sync_stall.(proc) <- t.sync_stall.(proc) + stall;
          t.lock_stall.(proc) <- t.lock_stall.(proc) + stall;
          t.clock.(proc) <- t.clock.(from)
        end);
  }

let finish t =
  let latest = Array.fold_left max 0 t.clock in
  let cycles = max latest (t.phase_anchor + t.ring_cycles) in
  {
    cycles;
    per_proc = Array.copy t.clock;
    mem_stall = Array.copy t.mem_stall;
    sync_stall = Array.copy t.sync_stall;
    lock_stall = Array.copy t.lock_stall;
    cache = Mpcache.counts t.cache;
  }

let cache t = t.cache
let config t = t.cfg
let clocks t = t.clock
