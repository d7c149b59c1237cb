module Layout = Fs_layout.Layout
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Listener = Fs_trace.Listener
module Mpcache = Fs_cache.Mpcache
module Ksr = Fs_machine.Ksr

(* ------------------------------------------------------------------ *)
(* The address oracle: per variable id, the cell -> address map of one
   realized layout, plus the injected-pointer-cell map for indirection. *)

type oracle = {
  addr : int array array;
  extra : int array array;
}

let oracle layout ~vars =
  let lookup name =
    match Layout.lookup layout name with
    | vl -> vl
    | exception Not_found ->
      invalid_arg ("Replay.oracle: layout has no variable " ^ name)
  in
  {
    addr = Array.map (fun name -> (lookup name).Layout.addr) vars;
    extra = Array.map (fun name -> (lookup name).Layout.extra) vars;
  }

(* ------------------------------------------------------------------ *)
(* The replay engine: packed events -> address oracle -> consumer, with
   no event unpacking and no per-event allocation.  One loop serves every
   source: an in-memory trace is read chunk by chunk in place (cut also
   at the flight interval when a recorder samples it), an on-disk trace
   one chunk per block, decoded into a single reused buffer.  Every body
   keeps its state in the call that runs it, so replays may run at once. *)

type run = { counts : Mpcache.counts; epochs : Mpcache.counts array array }

(* The cache bodies over events [lo .. hi - 1] of one chunk.  Only
   indirection layouts inject pointer cells, so the per-event pointer-read
   check lives in its own body.  Epochs are cut in the non-access branch,
   which costs the access path nothing: a snapshot of the per-processor
   counts at every [Barrier_release], most recent first in [cuts].

   The field shifts are written inline, not through the [Cell_event.packed_*]
   accessors: the dev profile compiles every library [-opaque], so each
   accessor would be an indirect call per event.  They mirror the bit
   layout documented in [Cell_event] (tag bits 0-2, write bit 3, proc
   bits 4-11, var bits 12-19, cell bits 20+); the replay = listener
   property tests and the pack/unpack round trip pin them down. *)
let cut cache cuts =
  cuts := Array.map Mpcache.copy_counts (Mpcache.proc_counts cache) :: !cuts

let walk_plain cache addr cuts data lo hi =
  for i = lo to hi - 1 do
    let packed = Array.unsafe_get data i in
    let tag = packed land 7 in
    if tag = Cell_event.tag_access then
      Mpcache.touch cache
        ~proc:((packed lsr 4) land 0xff)
        ~write:(packed land 8 <> 0)
        ~addr:addr.((packed lsr 12) land 0xff).(packed lsr 20)
    else if tag = Cell_event.tag_barrier_release then cut cache cuts
  done

let walk_extra cache addr extra cuts data lo hi =
  for i = lo to hi - 1 do
    let packed = Array.unsafe_get data i in
    let tag = packed land 7 in
    if tag = Cell_event.tag_access then begin
      let proc = (packed lsr 4) land 0xff in
      let cell = packed lsr 20 in
      let var = (packed lsr 12) land 0xff in
      let ex = extra.(var) in
      (* an indirection layout interposes a pointer cell: the read of
         the pointer happens before the data reference it redirects *)
      if Array.length ex > 0 && ex.(cell) >= 0 then
        Mpcache.touch cache ~proc ~write:false ~addr:ex.(cell);
      Mpcache.touch cache ~proc ~write:(packed land 8 <> 0)
        ~addr:addr.(var).(cell)
    end
    else if tag = Cell_event.tag_barrier_release then cut cache cuts
  done

(* The full-event bodies match on the [Cell_event] tag values and
   mirror [packed_amount], [packed_grant_from1] and [packed_grant_cell];
   steals carry no address and are dropped: the deque traffic a steal
   caused is already in the stream as accesses. *)
let walk_full addr extra (l : Listener.t) data lo hi =
  for i = lo to hi - 1 do
    let packed = Array.unsafe_get data i in
    let proc = (packed lsr 4) land 0xff in
    match packed land 7 with
    | 0 ->
      let var = (packed lsr 12) land 0xff and cell = packed lsr 20 in
      let ex = extra.(var) in
      if Array.length ex > 0 && ex.(cell) >= 0 then
        l.access ~proc ~write:false ~addr:ex.(cell);
      l.access ~proc ~write:(packed land 8 <> 0) ~addr:addr.(var).(cell)
    | 1 -> l.work ~proc ~amount:(packed lsr 12)
    | 2 -> l.barrier_arrive ~proc
    | 3 -> l.barrier_release ()
    | 4 ->
      l.lock_wait ~proc ~addr:addr.((packed lsr 12) land 0xff).(packed lsr 20)
    | 5 ->
      l.lock_grant ~proc
        ~addr:addr.((packed lsr 12) land 0xff).(packed lsr 29)
        ~from:(((packed lsr 20) land 0x1ff) - 1)
    | _ -> ()
  done

(* The KSR2 body writes the model's two common cases in place — a hit
   ([Mpcache.access_raw] returns 0) and a work event advance the clock,
   as [Ksr.charge] and [Ksr.listener] do — and hands the rest to the
   model's code, which ignores lock addresses and lock waits. *)
let[@inline] machine_step m cache clock hit ~proc ~write ~addr =
  let raw = Mpcache.access_raw cache ~proc ~write ~addr in
  if raw = 0 then clock.(proc) <- clock.(proc) + hit
  else Ksr.charge m ~proc ~addr raw

let walk_machine m addr extra data lo hi =
  let cache = Ksr.cache m and clock = Ksr.clocks m and l = Ksr.listener m in
  let { Ksr.hit_cycles = hit; work_cpi = cpi; _ } = Ksr.config m in
  for i = lo to hi - 1 do
    let packed = Array.unsafe_get data i in
    let proc = (packed lsr 4) land 0xff in
    match packed land 7 with
    | 0 ->
      let var = (packed lsr 12) land 0xff and cell = packed lsr 20 in
      let ex = extra.(var) in
      if Array.length ex > 0 && ex.(cell) >= 0 then
        machine_step m cache clock hit ~proc ~write:false ~addr:ex.(cell);
      machine_step m cache clock hit ~proc ~write:(packed land 8 <> 0)
        ~addr:addr.(var).(cell)
    | 1 -> clock.(proc) <- clock.(proc) + ((packed lsr 12) * cpi)
    | 2 -> l.barrier_arrive ~proc
    | 3 -> l.barrier_release ()
    | 5 -> l.lock_grant ~proc ~addr:0 ~from:(((packed lsr 20) land 0x1ff) - 1)
    | _ -> ()
  done

(* [source f] calls [f data lo hi] for each chunk, in trace order. *)
let run_chunks ?flight ~vars ~layout ~cache source =
  let o = oracle layout ~vars in
  let addr = o.addr and extra = o.extra in
  let walk =
    if Array.exists (fun ex -> Array.length ex > 0) extra then
      walk_extra cache addr extra
    else walk_plain cache addr
  in
  let cuts = ref [] in
  (* [finish] runs after the last chunk *)
  let chunk, finish =
    match flight with
    | None -> ((fun data lo hi -> walk cuts data lo hi), ignore)
    | Some fr ->
      (* block size is a power of two (enforced by Mpcache) *)
      let bshift =
        let b = (Mpcache.config cache).Mpcache.block in
        let s = ref 0 in
        while 1 lsl !s < b do incr s done;
        !s
      in
      let counts = Mpcache.counts cache and interval = Flight.interval fr in
      (* events retired so far, and the data address of the most recent
         access (0 before any access) *)
      let pos = ref 0 and last_addr = ref 0 in
      let sample () =
        Flight.sample fr ~at_event:(!pos - 1) ~counts
          ~block:(!last_addr lsr bshift)
      in
      Flight.start fr;
      ( (fun data lo hi ->
          walk cuts data lo hi;
          pos := !pos + (hi - lo);
          (* off the hot path: one backward scan per chunk, which almost
             always stops within a few events; a chunk without an access
             keeps the address of an earlier one *)
          let rec find i =
            if i >= lo then
              let packed = Array.unsafe_get data i in
              if Cell_event.packed_is_access packed then
                last_addr :=
                  addr.(Cell_event.packed_var packed).(Cell_event.packed_cell
                                                         packed)
              else find (i - 1)
          in
          find (hi - 1);
          (* the source cuts a chunk at every multiple of the interval,
             and may cut at others; those are not sampled *)
          if !pos mod interval = 0 then sample ()),
        (* a run that ends between two multiples samples its end *)
        fun () -> if !pos mod interval <> 0 then sample () )
  in
  source chunk;
  finish ();
  (* telescoping snapshot deltas; the tail epoch (after the last release,
     or the whole run when there is none) closes against the final
     counts, so the epochs always sum to the totals *)
  let snaps =
    Array.of_list (List.rev (Mpcache.proc_counts cache :: !cuts))
  in
  let epochs =
    Array.mapi
      (fun e procs ->
        if e = 0 then Array.map Mpcache.copy_counts procs
        else Array.map2 Mpcache.sub_counts procs snaps.(e - 1))
      snaps
  in
  { counts = Mpcache.counts cache; epochs }

(* The chunks of an in-memory trace, in place, each cut also at every
   multiple of [step] events from the start of the trace. *)
let trace_chunks ?(step = max_int) trace f =
  let base = ref 0 in
  Cell_trace.iter_chunks
    (fun data n ->
      let lo = ref 0 in
      while !lo < n do
        let hi = !lo + min (n - !lo) (step - ((!base + !lo) mod step)) in
        f data !lo hi;
        lo := hi
      done;
      base := !base + n)
    trace

let simulate ?flight trace ~layout ~cache =
  (* a recorder samples at every multiple of its interval, so the
     interval cuts the chunks; the end of a run between two multiples
     also deposits a sample, so short traces still record their end
     state *)
  let step = Option.map Flight.interval flight in
  run_chunks ?flight ~vars:(Cell_trace.vars trace) ~layout ~cache
    (trace_chunks ?step trace)

let drive trace ~layout ~listener =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  trace_chunks trace (walk_full o.addr o.extra listener)

let machine trace ~layout m =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  trace_chunks trace (walk_machine m o.addr o.extra)

let simulate_stream stream ~layout ~cache =
  run_chunks ~vars:(Cell_trace.Stream.vars stream) ~layout ~cache (fun f ->
      Cell_trace.Stream.iter_chunks (fun buf n -> f buf 0 n) stream)

(* Kept for the repo benchmark (perfbench/bench.ml), its only caller,
   which names this entry point and may not change with the engine. *)
let simulate_sharded_stream stream ~shards ~layout ~config =
  if shards <> 1 then
    invalid_arg "Replay.simulate_sharded_stream: shards must be 1";
  let cache = Mpcache.create ~max_addr:(Layout.size layout) config in
  simulate_stream stream ~layout ~cache

(* Kept under their old names for the repo benchmark (perfbench/), their
   only callers, which may not change with the engine. *)
let replay = drive

let replay_to_sink trace ~layout ~sink =
  drive trace ~layout ~listener:(Listener.of_sink sink)
