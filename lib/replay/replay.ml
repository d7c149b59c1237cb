module Layout = Fs_layout.Layout
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Cell_listener = Fs_trace.Cell_listener
module Listener = Fs_trace.Listener
module Mpcache = Fs_cache.Mpcache

let vars_of prog =
  Array.of_list (List.map fst prog.Fs_ir.Ast.globals)

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

let translating o (l : Listener.t) : Cell_listener.t =
  {
    access =
      (fun ~proc ~write ~var ~cell ->
        (* an indirection layout interposes a pointer cell: the read of the
           pointer happens before the data reference it redirects *)
        let extra = o.extra.(var) in
        if Array.length extra > 0 && extra.(cell) >= 0 then
          l.Listener.access ~proc ~write:false ~addr:extra.(cell);
        l.Listener.access ~proc ~write ~addr:o.addr.(var).(cell));
    work = l.Listener.work;
    barrier_arrive = l.Listener.barrier_arrive;
    barrier_release = l.Listener.barrier_release;
    lock_wait =
      (fun ~proc ~var ~cell ->
        l.Listener.lock_wait ~proc ~addr:o.addr.(var).(cell));
    lock_grant =
      (fun ~proc ~var ~cell ~from ->
        l.Listener.lock_grant ~proc ~addr:o.addr.(var).(cell) ~from);
    (* steals are scheduling annotations, not memory traffic: they have
       no address under any layout, so the translation drops them — the
       deque traffic they caused is already in the stream as accesses *)
    steal = (fun ~thief:_ ~victim:_ ~task:_ -> ());
  }

(* ------------------------------------------------------------------ *)

let replay trace ~layout ~listener =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  let cells = translating o listener in
  Cell_trace.deliver trace cells

let replay_to_sink trace ~layout ~sink =
  replay trace ~layout ~listener:(Listener.of_sink sink)

(* ------------------------------------------------------------------ *)
(* The replay engine: packed events -> address oracle -> cache, with no
   event unpacking, no listener dispatch, and no per-event allocation.
   Only Access events reach the cache — exactly what the listener path
   delivers through [Listener.of_sink], where every other hook is a
   no-op — so the two paths produce identical counts, per processor and
   per block too on a tracking cache (property-tested over every
   workload).

   One loop serves every source: an in-memory trace is one chunk (cut at
   the flight interval when a recorder samples it), an on-disk trace is
   one chunk per block, decoded into a single reused buffer. *)

type run = { counts : Mpcache.counts; epochs : Mpcache.counts array }

(* The two loop bodies over events [lo .. hi - 1] of one chunk.  Only
   indirection layouts inject pointer cells, so the per-event pointer-read
   check lives in its own body.  Epochs are cut in the non-access branch,
   which costs the access path nothing: a snapshot of the cumulative
   counts at every [Barrier_release], most recent first in [cuts].

   The field shifts are written inline, not through the [Cell_event.packed_*]
   accessors: the dev profile compiles every library [-opaque], so each
   accessor would be an indirect call per event.  They mirror the bit
   layout documented in [Cell_event] (tag bits 0-2, write bit 3, proc
   bits 4-11, var bits 12-19, cell bits 20+); the replay = listener
   property tests and the pack/unpack round trip pin them down. *)
let walk_plain cache addr cuts data lo hi =
  for i = lo to hi - 1 do
    let packed = Array.unsafe_get data i in
    let tag = packed land 7 in
    if tag = Cell_event.tag_access then
      Mpcache.touch cache
        ~proc:((packed lsr 4) land 0xff)
        ~write:(packed land 8 <> 0)
        ~addr:addr.((packed lsr 12) land 0xff).(packed lsr 20)
    else if tag = Cell_event.tag_barrier_release then
      cuts := Mpcache.copy_counts (Mpcache.counts cache) :: !cuts
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
    else if tag = Cell_event.tag_barrier_release then
      cuts := Mpcache.copy_counts (Mpcache.counts cache) :: !cuts
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
  let chunk =
    match flight with
    | None -> fun data lo hi -> walk cuts data lo hi
    | Some fr ->
      (* block size is a power of two (enforced by Mpcache) *)
      let bshift =
        let b = (Mpcache.config cache).Mpcache.block in
        let s = ref 0 in
        while 1 lsl !s < b do incr s done;
        !s
      in
      let counts = Mpcache.counts cache in
      (* events retired so far, and the data address of the most recent
         access before the current chunk (0 before any access) *)
      let pos = ref 0 and last_addr = ref 0 in
      Flight.start fr;
      fun data lo hi ->
        walk cuts data lo hi;
        pos := !pos + (hi - lo);
        (* off the hot path: one backward scan per chunk, which almost
           always stops within a few events *)
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
        Flight.sample fr ~at_event:(!pos - 1) ~counts
          ~block:(!last_addr lsr bshift)
  in
  source chunk;
  (* telescoping snapshot deltas; the tail epoch (after the last release,
     or the whole run when there is none) closes against the final
     counts, so the epochs always sum to the totals *)
  let counts = Mpcache.counts cache in
  let snaps = Array.of_list (List.rev (counts :: !cuts)) in
  let epochs =
    Array.mapi
      (fun e c ->
        if e = 0 then Mpcache.copy_counts c
        else Mpcache.sub_counts c snaps.(e - 1))
      snaps
  in
  { counts; epochs }

let simulate ?flight trace ~layout ~cache =
  let data = Cell_trace.unsafe_data trace in
  let n = Cell_trace.length trace in
  (* a recorder samples once per chunk, so its interval cuts the chunks;
     the final partial chunk also deposits a sample, so short traces
     still record their end state *)
  let step = match flight with Some fr -> Flight.interval fr | None -> n in
  run_chunks ?flight ~vars:(Cell_trace.vars trace) ~layout ~cache (fun f ->
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + step) in
        f data !lo hi;
        lo := hi
      done)

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
