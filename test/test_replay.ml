(* Tests for the cell-trace / replay layer: the replayed address stream
   is event-for-event identical to the direct interpretation path for
   every benchmark, version and block size; traces survive packing and
   disk round-trips; the trace memo shares interpretations; and the
   domain-pool fan-out is deterministic in the job count. *)

module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module Memo = Falseshare.Trace_memo
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Layout = Fs_layout.Layout
module Listener = Fs_trace.Listener
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Par = Fs_util.Par

(* ------------------------------------------------------------------ *)
(* Full-listener capture: every event, tagged, in delivery order        *)

type ev =
  | A of int * bool * int
  | Wk of int * int
  | Ba of int
  | Br
  | Lw of int * int
  | Lg of int * int * int

let capture acc : Listener.t =
  {
    access = (fun ~proc ~write ~addr -> acc := A (proc, write, addr) :: !acc);
    work = (fun ~proc ~amount -> acc := Wk (proc, amount) :: !acc);
    barrier_arrive = (fun ~proc -> acc := Ba proc :: !acc);
    barrier_release = (fun () -> acc := Br :: !acc);
    lock_wait = (fun ~proc ~addr -> acc := Lw (proc, addr) :: !acc);
    lock_grant =
      (fun ~proc ~addr ~from -> acc := Lg (proc, addr, from) :: !acc);
  }

let direct_stream prog ~nprocs ~layout =
  let acc = ref [] in
  let _ = Tutil.run prog ~nprocs ~layout ~listener:(capture acc) in
  List.rev !acc

let replay_stream trace ~layout =
  let acc = ref [] in
  Replay.drive trace ~layout ~listener:(capture acc);
  List.rev !acc

(* Replay of a recorded trace must reproduce the direct path event for
   event — including injected indirection pointer loads and every sync
   event — for all ten benchmarks, every available version, and both a
   small and a large block size. *)
let test_equivalence () =
  let nprocs = 4 and scale = 1 in
  List.iter
    (fun (w : W.t) ->
      let prog = w.build ~nprocs ~scale in
      let trace, _ = Interp.record prog ~nprocs in
      List.iter
        (fun version ->
          let plan = E.plan_for w version prog ~nprocs ~scale in
          List.iter
            (fun block ->
              let layout = Layout.realize prog plan ~block in
              let what =
                Printf.sprintf "%s/%s b=%d" w.name
                  (W.version_to_string version) block
              in
              let d = direct_stream prog ~nprocs ~layout in
              let r = replay_stream trace ~layout in
              Alcotest.(check int) (what ^ " event count") (List.length d)
                (List.length r);
              if d <> r then Alcotest.fail (what ^ ": streams differ"))
            [ 16; 128 ])
        w.versions)
    Ws.all

(* The indirected layouts really do inject pointer loads at replay: the
   replayed stream has more accesses than the trace records. *)
let test_pointer_loads_injected () =
  let w = Ws.find "pverify" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let trace, _ = Interp.record prog ~nprocs in
  let plan = E.plan_for w W.C prog ~nprocs ~scale:1 in
  Alcotest.(check bool) "plan indirects" true
    (List.exists
       (function Fs_layout.Plan.Indirect _ -> true | _ -> false)
       plan);
  let layout = Layout.realize prog plan ~block:128 in
  let accesses stream =
    List.length (List.filter (function A _ -> true | _ -> false) stream)
  in
  let traced = ref 0 in
  Cell_trace.iter
    (function Cell_event.Access _ -> incr traced | _ -> ())
    trace;
  let replayed = accesses (replay_stream trace ~layout) in
  Alcotest.(check bool)
    (Printf.sprintf "pointer loads injected (%d traced, %d replayed)" !traced
       replayed)
    true
    (replayed > !traced)

(* ------------------------------------------------------------------ *)
(* The fused engine: Replay.simulate must be count-identical to the
   reference listener path — globally, per processor, and per block —
   for every workload, both the unoptimized and the compiler layout,
   and a small and a large block size. *)

let test_fused_equivalence () =
  let nprocs = 4 and scale = 1 in
  let cfg block = Fs_cache.Mpcache.default_config ~nprocs ~block in
  List.iter
    (fun (w : W.t) ->
      let prog = w.build ~nprocs ~scale in
      let trace, _ = Interp.record prog ~nprocs in
      List.iter
        (fun version ->
          let plan = E.plan_for w version prog ~nprocs ~scale in
          List.iter
            (fun block ->
              let layout = Layout.realize prog plan ~block in
              let max_addr = Layout.size layout in
              let reference =
                Fs_cache.Mpcache.create ~track_blocks:true ~max_addr
                  (cfg block)
              in
              Tutil.cache_replay trace ~layout ~cache:reference;
              let fused =
                Fs_cache.Mpcache.create ~track_blocks:true ~max_addr
                  (cfg block)
              in
              ignore (Replay.simulate trace ~layout ~cache:fused);
              let what =
                Printf.sprintf "%s/%s b=%d" w.name
                  (W.version_to_string version) block
              in
              Alcotest.(check bool) (what ^ ": global counts") true
                (Fs_cache.Mpcache.counts reference
                = Fs_cache.Mpcache.counts fused);
              Alcotest.(check bool) (what ^ ": per-proc counts") true
                (Fs_cache.Mpcache.proc_counts reference
                = Fs_cache.Mpcache.proc_counts fused);
              Alcotest.(check bool) (what ^ ": per-block counts") true
                (Fs_cache.Mpcache.per_block reference
                = Fs_cache.Mpcache.per_block fused))
            [ 16; 128 ])
        [ W.N; W.C ])
    Ws.all

(* ------------------------------------------------------------------ *)
(* Packing and disk round-trips                                         *)

let event = Alcotest.testable Cell_event.pp ( = )

let test_pack_roundtrip () =
  let cases =
    [ Cell_event.Access { proc = 0; write = false; var = 0; cell = 0 };
      Cell_event.Access
        { proc = Cell_event.max_proc; write = true; var = Cell_event.max_var;
          cell = Cell_event.max_cell };
      Cell_event.Work { proc = 7; amount = 123_456 };
      Cell_event.Barrier_arrive { proc = 255 };
      Cell_event.Barrier_release;
      Cell_event.Lock_wait { proc = 3; var = 12; cell = 99 };
      Cell_event.Lock_grant { proc = 3; var = 12; cell = 99; from = -1 };
      Cell_event.Lock_grant { proc = 0; var = 255; cell = 1 lsl 30; from = 255 };
    ]
  in
  List.iter
    (fun e ->
      Alcotest.check event "pack/unpack" e
        (Cell_event.unpack (Cell_event.pack e)))
    cases;
  (* out-of-range fields are rejected, not silently truncated *)
  List.iter
    (fun e ->
      match Cell_event.pack e with
      | (_ : int) -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ Cell_event.Access
        { proc = Cell_event.max_proc + 1; write = false; var = 0; cell = 0 };
      Cell_event.Access
        { proc = 0; write = false; var = Cell_event.max_var + 1; cell = 0 };
      Cell_event.Lock_grant
        { proc = 0; var = 0; cell = Cell_event.max_cell + 1; from = 0 };
      Cell_event.Lock_grant { proc = 0; var = 0; cell = 0; from = -2 };
    ]

let prop_pack_roundtrip =
  let gen =
    let open QCheck.Gen in
    let proc = int_bound Cell_event.max_proc in
    let var = int_bound Cell_event.max_var in
    let cell = int_bound Cell_event.max_cell in
    oneof
      [ (proc >>= fun p -> var >>= fun v -> cell >>= fun c ->
         bool >|= fun w -> Cell_event.Access { proc = p; write = w; var = v; cell = c });
        (proc >>= fun p -> int_bound 1_000_000 >|= fun a ->
         Cell_event.Work { proc = p; amount = a });
        (proc >|= fun p -> Cell_event.Barrier_arrive { proc = p });
        return Cell_event.Barrier_release;
        (proc >>= fun p -> var >>= fun v -> cell >|= fun c ->
         Cell_event.Lock_wait { proc = p; var = v; cell = c });
        (proc >>= fun p -> var >>= fun v -> cell >>= fun c ->
         int_range (-1) Cell_event.max_proc >|= fun f ->
         Cell_event.Lock_grant { proc = p; var = v; cell = c; from = f });
      ]
  in
  QCheck.Test.make ~count:500 ~name:"cell event pack round-trip"
    (QCheck.make gen ~print:(Format.asprintf "%a" Cell_event.pp))
    (fun e -> Cell_event.unpack (Cell_event.pack e) = e)

let test_disk_roundtrip () =
  let w = Ws.find "maxflow" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let trace, _ = Interp.record prog ~nprocs in
  let path = Filename.temp_file "fstrace" ".fstrace" in
  Cell_trace.write_file trace path;
  let back = Cell_trace.read_file path in
  Alcotest.(check bool) "trace survives disk" true (Cell_trace.equal trace back);
  Alcotest.(check int) "nprocs survives" (Cell_trace.nprocs trace)
    (Cell_trace.nprocs back);
  Alcotest.(check bool) "vars survive" true
    (Cell_trace.vars trace = Cell_trace.vars back);
  let oc = open_out path in
  output_string oc "not a trace";
  close_out oc;
  (match Cell_trace.read_file path with
   | (_ : Cell_trace.t) -> Alcotest.fail "expected Corrupt"
   | exception Cell_trace.Corrupt _ -> ());
  Sys.remove path

(* Corruption surfaces as the typed [Corrupt] error — never a bare
   [End_of_file] or [Failure] — at both ends of the file: a cut inside
   the header (name table) and a cut through the last word of the
   trailer.  The streaming reader must reject the same files at open
   time. *)
let test_disk_truncation () =
  let w = Ws.find "maxflow" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let trace, _ = Interp.record prog ~nprocs in
  let path = Filename.temp_file "fstrace" ".fstrace" in
  Cell_trace.write_file trace path;
  let size =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let truncate_to n =
    let ic = open_in_bin path in
    let data = really_input_string ic n in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc
  in
  let expect_corrupt what =
    (match Cell_trace.read_file path with
     | (_ : Cell_trace.t) -> Alcotest.fail (what ^ ": expected Corrupt")
     | exception Cell_trace.Corrupt _ -> ()
     | exception e ->
       Alcotest.fail
         (Printf.sprintf "%s: expected Corrupt, got %s" what
            (Printexc.to_string e)));
    match Cell_trace.of_file_stream path with
    | (_ : Cell_trace.Stream.t) ->
      Alcotest.fail (what ^ ": stream open expected Corrupt")
    | exception Cell_trace.Corrupt _ -> ()
    | exception e ->
      Alcotest.fail
        (Printf.sprintf "%s: stream open expected Corrupt, got %s" what
           (Printexc.to_string e))
  in
  (* tail truncation: drop the last word of the file *)
  truncate_to (size - 4);
  expect_corrupt "tail truncated";
  (* header truncation: cut inside the variable-name table, well before
     the first block *)
  truncate_to 29;
  expect_corrupt "header truncated";
  Sys.remove path

(* The boundary sizes of the disk format: a trace with no events at all
   (no blocks, an empty index), and a trace of exactly one event (the
   [max total 1] backing-array allocation in [read_file]). *)
let test_disk_roundtrip_edges () =
  let roundtrip what t =
    let path = Filename.temp_file "fstrace" ".fstrace" in
    Cell_trace.write_file t path;
    let back = Cell_trace.read_file path in
    Sys.remove path;
    Alcotest.(check bool) (what ^ " survives disk") true
      (Cell_trace.equal t back);
    Alcotest.(check int) (what ^ " length") (Cell_trace.length t)
      (Cell_trace.length back);
    back
  in
  let empty = Cell_trace.create ~vars:[| "a"; "b" |] ~nprocs:2 in
  let back = roundtrip "empty trace" empty in
  Alcotest.(check int) "empty trace has no events" 0 (Cell_trace.length back);
  Alcotest.(check (option int)) "var table survives empty trace" (Some 1)
    (Cell_trace.var_id back "b");
  let one = Cell_trace.create ~vars:[| "x" |] ~nprocs:1 in
  Cell_trace.push one
    (Cell_event.pack_access ~proc:0 ~write:true ~var:0 ~cell:7);
  let back = roundtrip "one-event trace" one in
  Alcotest.check
    (Alcotest.testable Cell_event.pp ( = ))
    "the one event survives"
    (Cell_event.Access { proc = 0; write = true; var = 0; cell = 7 })
    (Cell_trace.get back 0)

(* ------------------------------------------------------------------ *)
(* The trace memo                                                       *)

let test_memo_sharing () =
  Memo.clear ();
  let w = Ws.find "water" in
  let e1 = Memo.get w ~nprocs:4 ~scale:1 in
  let e2 = Memo.get w ~nprocs:4 ~scale:1 in
  Alcotest.(check bool) "second get shares the trace" true
    (e1.Memo.recorded.Sim.trace == e2.Memo.recorded.Sim.trace);
  let st = Memo.stats () in
  Alcotest.(check (pair int int)) "one miss then one hit" (1, 1)
    (st.hits, st.misses);
  (* get_all: duplicates collapse to one interpretation, order is kept *)
  Memo.clear ();
  let es = Memo.get_all ~jobs:2 [ (w, 4, 1); (w, 4, 1); (w, 2, 1) ] in
  (match es with
   | [ a; b; c ] ->
     Alcotest.(check bool) "duplicates share" true (a.Memo.recorded.Sim.trace == b.Memo.recorded.Sim.trace);
     Alcotest.(check int) "4-proc trace" 4 (Cell_trace.nprocs a.Memo.recorded.Sim.trace);
     Alcotest.(check int) "2-proc trace" 2 (Cell_trace.nprocs c.Memo.recorded.Sim.trace)
   | _ -> Alcotest.fail "expected three entries");
  Alcotest.(check int) "two distinct interpretations" 2 (Memo.stats ()).misses;
  Memo.clear ()

(* ------------------------------------------------------------------ *)
(* Parallel fan-out determinism                                         *)

let test_par_map () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order kept at jobs=%d" jobs)
        expect
        (Par.map ~jobs f xs))
    [ 1; 2; 4; 7 ];
  (match Par.map ~jobs:4 (fun x -> if x = 41 then failwith "boom" else x) xs with
   | (_ : int list) -> Alcotest.fail "expected failure to propagate"
   | exception Failure msg -> Alcotest.(check string) "error surfaced" "boom" msg);
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 f []);
  (* clamp edges: 0 means sequential, 1 is sequential, and a request far
     above both the core count and the task count is clamped, not an
     error — all three produce the same ordered results *)
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "clamped at jobs=%d" jobs)
        expect
        (Par.map ~jobs f xs))
    [ 0; 1; 100_000 ];
  Alcotest.(check (list int)) "jobs above n on a short list" [ f 1; f 2 ]
    (Par.map ~jobs:64 f [ 1; 2 ])

(* The experiment drivers return identical results whatever the job
   count — the determinism guarantee behind the --jobs flag. *)
let test_jobs_independence () =
  let fig_a = E.figure3 ~blocks:[ 32 ] ~scale_override:1 ~jobs:1 () in
  let fig_b = E.figure3 ~blocks:[ 32 ] ~scale_override:1 ~jobs:4 () in
  Alcotest.(check bool) "figure3 independent of jobs" true (fig_a = fig_b);
  let sp_a = E.speedups ~procs:[ 1; 4 ] ~names:[ "maxflow" ] ~jobs:1 () in
  let sp_b = E.speedups ~procs:[ 1; 4 ] ~names:[ "maxflow" ] ~jobs:4 () in
  Alcotest.(check bool) "speedups independent of jobs" true (sp_a = sp_b)

(* Two separate recordings of one program replay to identical counts. *)
let test_sim_recorded_counts () =
  let w = Ws.find "raytrace" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let first = Sim.record prog ~nprocs and second = Sim.record prog ~nprocs in
  let plan = E.plan_for w W.C prog ~nprocs ~scale:1 in
  List.iter
    (fun block ->
      let fresh = Sim.cache_sim ~recorded:first prog plan ~nprocs ~block in
      let replayed = Sim.cache_sim ~recorded:second prog plan ~nprocs ~block in
      Alcotest.(check bool)
        (Printf.sprintf "counts identical at block %d" block)
        true
        (fresh.Sim.counts = replayed.Sim.counts))
    [ 16; 128 ]

(* The KSR2 model on the replay engine's KSR2 body ([Sim.machine_sim],
   which replays a recording through [Replay.machine]) against the same
   model driven live by the interpreter through [Ksr.listener]: every
   workload under the unoptimized and the compiler layout, at scale 1
   and 8 processors.  The two routes share the model's cost code and the
   layout's address tables; one decodes packed events and charges hits
   and work in place, the other hears the interpreter through
   [Tutil.translating]. *)
let test_ksr_engine_vs_interp () =
  let module Ksr = Fs_machine.Ksr in
  let nprocs = 8 and scale = 1 in
  List.iter
    (fun (w : W.t) ->
      let sched =
        if w.W.dynamic then Some (Fs_sched.Sched.seeded 1) else None
      in
      let prog = w.build ~nprocs ~scale in
      let recorded = Sim.record ?sched prog ~nprocs in
      List.iter
        (fun version ->
          let plan = E.plan_for w version prog ~nprocs ~scale in
          let what =
            Printf.sprintf "%s/%s" w.name (W.version_to_string version)
          in
          let engine =
            (Sim.machine_sim ~recorded prog plan ~nprocs).Sim.machine
          in
          let config = Ksr.default_config ~nprocs in
          let layout = Layout.realize prog plan ~block:config.Ksr.block in
          let m = Ksr.create config in
          let _ =
            Tutil.run ?sched prog ~nprocs ~layout ~listener:(Ksr.listener m)
          in
          let live = Ksr.finish m in
          let ints field a b =
            Alcotest.(check (array int)) (what ^ ": " ^ field) a b
          in
          Alcotest.(check int) (what ^ ": cycles") live.Ksr.cycles
            engine.Ksr.cycles;
          ints "per_proc" live.Ksr.per_proc engine.Ksr.per_proc;
          ints "mem_stall" live.Ksr.mem_stall engine.Ksr.mem_stall;
          ints "sync_stall" live.Ksr.sync_stall engine.Ksr.sync_stall;
          ints "lock_stall" live.Ksr.lock_stall engine.Ksr.lock_stall;
          Alcotest.(check bool) (what ^ ": cache") true
            (live.Ksr.cache = engine.Ksr.cache))
        [ W.N; W.C ])
    Ws.every

(* A recording is read in place, chunk by chunk.  Replaying one that
   spans several recorder chunks must give what the same events give
   held as one array (as [read_file] returns them): the same counts and
   epochs, and flight samples at the same events with the same counts
   and block.  The interval divides none of the chunk sizes, so samples
   fall inside chunks and a chunk cut is never a sample point. *)
let test_chunked_replay () =
  let module Flight = Fs_replay.Flight in
  let module C = Fs_cache.Mpcache in
  let nprocs = 4 in
  let prog = (Ws.find "pverify").W.build ~nprocs ~scale:1 in
  let trace = fst (Interp.record prog ~nprocs) in
  let path = Filename.temp_file "chunks" ".fstrace" in
  Cell_trace.write_file trace path;
  let whole = Cell_trace.read_file path in
  Sys.remove path;
  let chunks t =
    let n = ref 0 in
    Cell_trace.iter_chunks (fun _ _ -> incr n) t;
    !n
  in
  Alcotest.(check bool) "the recording spans several chunks" true
    (chunks trace > 3);
  Alcotest.(check int) "the file's copy is one array" 1 (chunks whole);
  let interval = 1000 in
  let layout = Layout.default prog ~block:64 in
  let run t =
    let flight =
      Flight.create ~interval
        ~capacity:((Cell_trace.length t / interval) + 2)
        ()
    in
    let cache =
      C.create ~max_addr:(Layout.size layout) (C.default_config ~nprocs ~block:64)
    in
    let r = Replay.simulate ~flight t ~layout ~cache in
    let samples =
      List.map
        (fun (s : Flight.sample) ->
          ( s.s_event,
            [ s.s_reads; s.s_writes; s.s_cold; s.s_repl; s.s_true_sh;
              s.s_false_sh; s.s_block ] ))
        (Flight.samples flight)
    in
    (r.Replay.counts, r.Replay.epochs, samples)
  in
  let counts, epochs, samples = run trace in
  let counts', epochs', samples' = run whole in
  Alcotest.(check bool) "counts" true (counts = counts');
  Alcotest.(check bool) "epochs" true (epochs = epochs');
  Alcotest.(check (list int)) "sample events"
    (List.init ((Cell_trace.length trace + interval - 1) / interval)
       (fun k -> min (((k + 1) * interval) - 1) (Cell_trace.length trace - 1)))
    (List.map fst samples);
  Alcotest.(check bool) "sample counts and blocks" true (samples = samples')

(* The engine's loop performs a hit in place and allocates nothing per
   access: an untracked and a block-tracked replay of pverify allocate
   at most 0.01 minor words per access, beyond the tracked cache's
   first touch of each block (its counts record and option cell) and
   the per-barrier epoch snapshots. *)
let test_replay_allocation () =
  let module C = Fs_cache.Mpcache in
  let nprocs = 8 in
  let prog = (Ws.find "pverify").W.build ~nprocs ~scale:2 in
  let trace = fst (Interp.record prog ~nprocs) in
  let layout = Layout.default prog ~block:64 in
  let releases = ref 0 in
  Cell_trace.iter_packed
    (fun p ->
      if Cell_event.packed_tag p = Cell_event.tag_barrier_release then
        incr releases)
    trace;
  List.iter
    (fun track_blocks ->
      let cache =
        C.create ~track_blocks ~max_addr:(Layout.size layout)
          (C.default_config ~nprocs ~block:64)
      in
      let before = Gc.minor_words () in
      let run = Replay.simulate trace ~layout ~cache in
      let words = Gc.minor_words () -. before in
      let accesses = C.accesses run.Replay.counts in
      let blocks = if track_blocks then List.length (C.per_block cache) else 0 in
      (* a snapshot is an array of [nprocs] 9-word records, plus a list cell *)
      let snapshots = (!releases + 1) * ((10 * nprocs) + 8) in
      let first_touch = 12 * blocks in
      let per_access =
        (words -. float_of_int (snapshots + first_touch))
        /. float_of_int accesses
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words per access over %d accesses"
           (if track_blocks then "tracked" else "untracked")
           per_access accesses)
        true (per_access <= 0.01))
    [ false; true ]

(* A cache created without [~max_addr] grows while the loop walks a
   chunk, so the loop must follow the miss path's fresh arrays.  The
   grown cache's counts, per-block table and epochs must equal a
   presized cache's, and its counts the listener reference's. *)
let test_fused_growth () =
  let module C = Fs_cache.Mpcache in
  let nprocs = 4 in
  List.iter
    (fun (name, scale, block) ->
      let prog = (Ws.find name).W.build ~nprocs ~scale in
      let trace = fst (Interp.record prog ~nprocs) in
      let layout = Layout.default prog ~block in
      (* the arrays start at 1024 blocks *)
      Alcotest.(check bool) (name ^ ": layout outgrows the initial arrays")
        true
        (Layout.size layout > 1024 * block);
      let cfg = C.default_config ~nprocs ~block in
      let reference = C.create ~track_blocks:true cfg in
      Tutil.cache_replay trace ~layout ~cache:reference;
      let hinted =
        C.create ~track_blocks:true ~max_addr:(Layout.size layout) cfg
      in
      let presized = Replay.simulate trace ~layout ~cache:hinted in
      let grown = C.create ~track_blocks:true cfg in
      let run = Replay.simulate trace ~layout ~cache:grown in
      Alcotest.(check bool) (name ^ ": counts = reference") true
        (C.counts reference = run.Replay.counts
        && C.proc_counts reference = C.proc_counts grown);
      Alcotest.(check bool) (name ^ ": per-block = reference") true
        (C.per_block reference = C.per_block grown);
      Alcotest.(check bool) (name ^ ": per-block = presized") true
        (C.per_block hinted = C.per_block grown);
      Alcotest.(check bool) (name ^ ": epochs = presized") true
        (presized.Replay.epochs = run.Replay.epochs))
    [ ("maxflow", 4, 16); ("water", 8, 4) ]

(* [Replay.machine]'s KSR2 body against the same model hearing the same
   recording through [Ksr.listener], driven by [Replay.drive]: every
   workload under both layouts at 4 and 12 processors.  The model's
   cache grows as it goes (it is created without [~max_addr]). *)
let test_ksr_engine_vs_listener () =
  let module Ksr = Fs_machine.Ksr in
  List.iter
    (fun nprocs ->
      List.iter
        (fun (w : W.t) ->
          let sched =
            if w.W.dynamic then Some (Fs_sched.Sched.seeded 1) else None
          in
          let prog = w.build ~nprocs ~scale:1 in
          let recorded = Sim.record ?sched prog ~nprocs in
          List.iter
            (fun version ->
              let plan = E.plan_for w version prog ~nprocs ~scale:1 in
              let config = Ksr.default_config ~nprocs in
              let layout = Layout.realize prog plan ~block:config.Ksr.block in
              let engine = Ksr.create config and live = Ksr.create config in
              Replay.machine recorded.Sim.trace ~layout engine;
              Replay.drive recorded.Sim.trace ~layout
                ~listener:(Ksr.listener live);
              let e = Ksr.finish engine and l = Ksr.finish live in
              let what =
                Printf.sprintf "%s/%s p=%d" w.name
                  (W.version_to_string version) nprocs
              in
              Alcotest.(check int) (what ^ ": cycles") l.Ksr.cycles e.Ksr.cycles;
              Alcotest.(check (array int)) (what ^ ": per_proc") l.Ksr.per_proc
                e.Ksr.per_proc;
              Alcotest.(check (array int)) (what ^ ": mem_stall")
                l.Ksr.mem_stall e.Ksr.mem_stall;
              Alcotest.(check (array int)) (what ^ ": sync_stall")
                l.Ksr.sync_stall e.Ksr.sync_stall;
              Alcotest.(check (array int)) (what ^ ": lock_stall")
                l.Ksr.lock_stall e.Ksr.lock_stall;
              Alcotest.(check bool) (what ^ ": cache") true
                (l.Ksr.cache = e.Ksr.cache))
            [ W.N; W.C ])
        Ws.every)
    [ 4; 12 ]

let suite =
  [ Alcotest.test_case "replay equivalence (all benchmarks)" `Quick
      test_equivalence;
    Alcotest.test_case "pointer loads injected at replay" `Quick
      test_pointer_loads_injected;
    Alcotest.test_case "fused engine count equivalence (all benchmarks)" `Quick
      test_fused_equivalence;
    Alcotest.test_case "fused engine growable arrays" `Quick test_fused_growth;
    Alcotest.test_case "event packing" `Quick test_pack_roundtrip;
    QCheck_alcotest.to_alcotest prop_pack_roundtrip;
    Alcotest.test_case "trace disk round-trip" `Quick test_disk_roundtrip;
    Alcotest.test_case "trace disk truncation points" `Quick
      test_disk_truncation;
    Alcotest.test_case "trace disk round-trip edges" `Quick
      test_disk_roundtrip_edges;
    Alcotest.test_case "memo sharing" `Quick test_memo_sharing;
    Alcotest.test_case "par map" `Quick test_par_map;
    Alcotest.test_case "jobs independence" `Quick test_jobs_independence;
    Alcotest.test_case "sim replay counts" `Quick test_sim_recorded_counts;
    Alcotest.test_case "KSR2 engine = interpreter (every workload x {N,C})"
      `Quick test_ksr_engine_vs_interp;
    Alcotest.test_case "chunked recording replays as one array" `Quick
      test_chunked_replay;
    Alcotest.test_case "no allocation per access" `Quick
      test_replay_allocation;
    Alcotest.test_case "KSR2 engine = listener (every workload x {N,C} x {4,12})"
      `Quick test_ksr_engine_vs_listener ]
