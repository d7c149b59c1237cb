(* Tests for the replay engine: bit-identity with the listener reference
   path, in memory and streamed from disk, epoch reconciliation with the
   Phases profile, and the Sim/Pipeline routes agreeing.  The suite
   and its test names date from when replay could also be sharded; they
   are kept so the test ids stay stable. *)

module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module Phases = Falseshare.Phases
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Flight = Fs_replay.Flight
module Layout = Fs_layout.Layout
module Mpcache = Fs_cache.Mpcache
module Cell_trace = Fs_trace.Cell_trace

let with_trace_file ?block_events trace f =
  let path = Filename.temp_file "fstrace" ".fstrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cell_trace.write_file ?block_events trace path;
      let stream = Cell_trace.of_file_stream path in
      Fun.protect
        ~finally:(fun () -> Cell_trace.Stream.close stream)
        (fun () -> f stream))

(* The load-bearing property of the engine: for every workload, version
   and block size, its counts — global, per processor, and per block on
   a tracking cache — are bit-identical to the listener reference path,
   both from the in-memory trace and from a file of many small blocks. *)
let test_sharded_equivalence () =
  let nprocs = 4 and scale = 1 in
  List.iter
    (fun (w : W.t) ->
      let prog = w.build ~nprocs ~scale in
      let trace, _ = Interp.record prog ~nprocs in
      with_trace_file ~block_events:1024 trace @@ fun stream ->
      Alcotest.(check bool) (w.name ^ ": trace spans several blocks") true
        (Cell_trace.Stream.nblocks stream > 2);
      List.iter
        (fun version ->
          let plan = E.plan_for w version prog ~nprocs ~scale in
          List.iter
            (fun block ->
              let layout = Layout.realize prog plan ~block in
              let cache () =
                Mpcache.create ~track_blocks:true
                  ~max_addr:(Layout.size layout)
                  (Mpcache.default_config ~nprocs ~block)
              in
              let reference = cache () in
              Tutil.cache_replay trace ~layout ~cache:reference;
              let in_memory = cache () and streamed = cache () in
              ignore (Replay.simulate trace ~layout ~cache:in_memory);
              ignore (Replay.simulate_stream stream ~layout ~cache:streamed);
              List.iter
                (fun (source, c) ->
                  let what =
                    Printf.sprintf "%s/%s b=%d %s" w.name
                      (W.version_to_string version) block source
                  in
                  Alcotest.(check bool) (what ^ ": global counts") true
                    (Mpcache.counts c = Mpcache.counts reference);
                  Alcotest.(check bool) (what ^ ": per-proc counts") true
                    (Mpcache.proc_counts c = Mpcache.proc_counts reference);
                  Alcotest.(check bool) (what ^ ": per-block counts") true
                    (Mpcache.per_block c = Mpcache.per_block reference))
                [ ("in memory", in_memory); ("streamed", streamed) ])
            [ 16; 128 ])
        [ W.N; W.C ])
    Ws.all

(* Epoch reconciliation: the engine's per-epoch, per-processor deltas
   must sum to the whole-run totals, and the Phases profile of the same
   recording must agree with them epoch for epoch. *)
let test_epoch_reconciliation () =
  List.iter
    (fun name ->
      let w = Ws.find name in
      let nprocs = w.W.fig3_procs in
      let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
      let recorded = Sim.record prog ~nprocs in
      let block = 128 in
      let layout = Layout.default prog ~block in
      let cache =
        Mpcache.create ~max_addr:(Layout.size layout)
          (Mpcache.default_config ~nprocs ~block)
      in
      let p =
        Phases.analyze ~recorded prog Fs_layout.Plan.empty ~nprocs ~block
      in
      let r = Replay.simulate recorded.Sim.trace ~layout ~cache in
      let esum = Mpcache.zero_counts () in
      Array.iter (Array.iter (Mpcache.add_into esum)) r.Replay.epochs;
      Alcotest.(check bool) (name ^ ": epochs sum to totals") true
        (esum = r.Replay.counts);
      Alcotest.(check int) (name ^ ": epoch count")
        (List.length p.Phases.epochs)
        (Array.length r.Replay.epochs);
      List.iter
        (fun (e : Phases.epoch) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: epoch %d counts" name e.Phases.index)
            true
            (e.Phases.per_proc = r.Replay.epochs.(e.Phases.index)))
        p.Phases.epochs)
    [ "pverify"; "topopt" ]

(* Streamed replay: a trace written to disk in blocks far smaller than
   the trace and replayed through the block reader carries the recorded
   header and produces counts and epochs identical to the in-memory
   path; a closed stream refuses further reads. *)
let test_stream_replay_identity () =
  let w = Ws.find "maxflow" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let trace, _ = Interp.record prog ~nprocs in
  let block = 64 in
  let layout = Layout.default prog ~block in
  let config = Mpcache.default_config ~nprocs ~block in
  let cache () = Mpcache.create ~max_addr:(Layout.size layout) config in
  let in_memory = Replay.simulate trace ~layout ~cache:(cache ()) in
  with_trace_file ~block_events:1024 trace @@ fun stream ->
  Alcotest.(check bool) "trace spans several blocks" true
    (Cell_trace.Stream.nblocks stream > 2);
  Alcotest.(check int) "stream length" (Cell_trace.length trace)
    (Cell_trace.Stream.length stream);
  Alcotest.(check int) "stream nprocs" nprocs
    (Cell_trace.Stream.nprocs stream);
  Alcotest.(check bool) "stream vars" true
    (Cell_trace.Stream.vars stream = Cell_trace.vars trace);
  let s = Replay.simulate_stream stream ~layout ~cache:(cache ()) in
  Alcotest.(check bool) "streamed counts identical" true
    (s.Replay.counts = in_memory.Replay.counts);
  Alcotest.(check bool) "streamed epochs identical" true
    (s.Replay.epochs = in_memory.Replay.epochs);
  Cell_trace.Stream.close stream;
  match Cell_trace.Stream.iter_chunks (fun _ _ -> ()) stream with
  | () -> Alcotest.fail "expected Invalid_argument after close"
  | exception Invalid_argument _ -> ()

(* The routing surface: Sim.cache_sim — tracked, and with a flight
   recorder attached — must report the same counts and per-block table
   as Pipeline.run, which records and replays the same plan itself. *)
let test_routing_equivalence () =
  let w = Ws.find "raytrace" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let recorded = Sim.record prog ~nprocs in
  let plan = E.plan_for w W.C prog ~nprocs ~scale:1 in
  let block = 128 in
  let p = Falseshare.Pipeline.run ~plan prog ~nprocs ~block in
  let pipeline = p.Falseshare.Pipeline.cache in
  List.iter
    (fun (what, flight) ->
      let r =
        Sim.cache_sim ~track_blocks:true ?flight ~recorded prog plan ~nprocs
          ~block
      in
      Alcotest.(check bool) (what ^ ": counts") true
        (r.Sim.counts = pipeline.Sim.counts);
      Alcotest.(check bool) (what ^ ": per-block") true
        (r.Sim.per_block = pipeline.Sim.per_block))
    [ ("cache_sim", None); ("cache_sim + flight", Some (Flight.create ())) ]

let suite =
  [ Alcotest.test_case "sharded count equivalence (all benchmarks)" `Quick
      test_sharded_equivalence;
    Alcotest.test_case "epoch reconciliation vs phases profile" `Quick
      test_epoch_reconciliation;
    Alcotest.test_case "streamed replay identity" `Quick
      test_stream_replay_identity;
    Alcotest.test_case "sim/pipeline sharded routing" `Quick
      test_routing_equivalence ]
