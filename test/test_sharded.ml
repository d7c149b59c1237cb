(* Tests for the sharded replay engine: bit-identity with the listener
   reference path across shard counts, epoch reconciliation against the
   Phases tracker, set-aligned shard hashing, and the streamed chunked
   reader producing counts identical to the in-memory path. *)

module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module Phases = Falseshare.Phases
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Layout = Fs_layout.Layout
module Mpcache = Fs_cache.Mpcache
module Cell_trace = Fs_trace.Cell_trace
module Par = Fs_util.Par

(* The load-bearing property of the whole refactor: for every workload,
   version, block size, and shard count, the merged sharded counts —
   global, per processor, and per block — are bit-identical to the
   listener reference path.  One persistent two-worker pool serves every
   sharded run, so the test exercises real cross-domain execution even
   on a single-core box. *)
let test_sharded_equivalence () =
  let nprocs = 4 and scale = 1 in
  let shard_counts =
    List.sort_uniq compare [ 1; 2; 3; 4; Par.default_jobs () ]
  in
  Par.Pool.with_pool ~jobs:2 (fun pool ->
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
                  let config = Mpcache.default_config ~nprocs ~block in
                  let reference =
                    Mpcache.create ~track_blocks:true
                      ~max_addr:(Layout.size layout) config
                  in
                  Replay.replay_to_sink trace ~layout
                    ~sink:(Mpcache.sink reference);
                  List.iter
                    (fun shards ->
                      let s =
                        Replay.simulate_sharded ~pool ~track_blocks:true trace
                          ~shards ~layout ~config
                      in
                      let caches = Replay.sharded_caches s in
                      let what =
                        Printf.sprintf "%s/%s b=%d shards=%d" w.name
                          (W.version_to_string version) block shards
                      in
                      Alcotest.(check bool) (what ^ ": global counts") true
                        (s.Replay.counts = Mpcache.counts reference);
                      Alcotest.(check bool) (what ^ ": per-proc counts") true
                        (Mpcache.merged_proc_counts caches
                        = Mpcache.proc_counts reference);
                      Alcotest.(check bool) (what ^ ": per-block counts") true
                        (Mpcache.merged_per_block caches
                        = Mpcache.per_block reference))
                    shard_counts)
                [ 16; 128 ])
            [ W.N; W.C ])
        Ws.all)

(* Epoch reconciliation: the merged per-epoch deltas must sum to the
   whole-run totals, and must agree epoch for epoch with the Phases
   tracker's listener-path segmentation of the same replay. *)
let test_epoch_reconciliation () =
  List.iter
    (fun name ->
      let w = Ws.find name in
      let nprocs = w.W.fig3_procs in
      let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
      let recorded = Sim.record prog ~nprocs in
      let block = 128 in
      let layout = Layout.default prog ~block in
      let config = Mpcache.default_config ~nprocs ~block in
      let p =
        Phases.analyze ~recorded prog Fs_layout.Plan.empty ~nprocs ~block
      in
      List.iter
        (fun shards ->
          let s =
            Replay.simulate_sharded recorded.Sim.trace ~shards ~layout ~config
          in
          let what = Printf.sprintf "%s shards=%d" name shards in
          let esum = Mpcache.zero_counts () in
          Array.iter (fun e -> Mpcache.add_into esum e) s.Replay.epochs;
          Alcotest.(check bool) (what ^ ": epochs sum to totals") true
            (esum = s.Replay.counts);
          Alcotest.(check int) (what ^ ": epoch count")
            (List.length p.Phases.epochs)
            (Array.length s.Replay.epochs);
          List.iter
            (fun (e : Phases.epoch) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: epoch %d counts" what e.Phases.index)
                true
                (Phases.epoch_total e = s.Replay.epochs.(e.Phases.index)))
            p.Phases.epochs)
        [ 1; 3; 4 ])
    [ "pverify"; "topopt" ]

(* The shard hash is set-aligned: every address of one block, and every
   block of one LRU set, must land in the same shard — the invariant the
   bit-identity argument rests on. *)
let test_shard_hash_set_aligned () =
  let config =
    { Mpcache.nprocs = 4; block = 64; cache_bytes = 32 * 1024; assoc = 4 }
  in
  let sh = Mpcache.sharding config in
  let nsets = 32 * 1024 / (64 * 4) in
  List.iter
    (fun shards ->
      for b = 0 to 4 * nsets do
        let base = b * 64 in
        let s0 = Mpcache.shard_of_addr sh ~shards ~addr:base in
        Alcotest.(check bool) "shard in range" true (s0 >= 0 && s0 < shards);
        (* all addresses of the block *)
        Alcotest.(check int) "block-aligned" s0
          (Mpcache.shard_of_addr sh ~shards ~addr:(base + 63));
        (* the block one whole cache round away shares the set *)
        Alcotest.(check int) "set-aligned" s0
          (Mpcache.shard_of_addr sh ~shards ~addr:(base + (nsets * 64)))
      done)
    [ 1; 2; 3; 4; 7 ];
  let w = Ws.find "pverify" in
  let prog = w.W.build ~nprocs:4 ~scale:1 in
  let trace, _ = Interp.record prog ~nprocs:4 in
  let layout = Layout.default prog ~block:64 in
  (match Replay.simulate_sharded trace ~shards:0 ~layout ~config with
   | (_ : Replay.sharded) -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ())

(* Streamed replay: a trace written to disk and replayed through the
   block reader — with blocks far smaller than the trace, so the
   pipelined decode window runs past block 0 — produces counts identical
   to the in-memory path, sharded or not. *)
let test_stream_replay_identity () =
  let w = Ws.find "maxflow" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let trace, _ = Interp.record prog ~nprocs in
  let block = 64 in
  let layout = Layout.default prog ~block in
  let config = Mpcache.default_config ~nprocs ~block in
  let in_memory =
    Replay.simulate_sharded trace ~shards:1 ~layout ~config
  in
  let path = Filename.temp_file "fstrace" ".fstrace" in
  Cell_trace.write_file ~block_events:1024 trace path;
  List.iter
    (fun shards ->
      let stream = Cell_trace.of_file_stream path in
      Alcotest.(check bool) "trace spans several blocks" true
        (Cell_trace.Stream.nblocks stream > 2);
      Alcotest.(check int) "stream length" (Cell_trace.length trace)
        (Cell_trace.Stream.length stream);
      Alcotest.(check int) "stream nprocs" nprocs
        (Cell_trace.Stream.nprocs stream);
      Alcotest.(check bool) "stream vars" true
        (Cell_trace.Stream.vars stream = Cell_trace.vars trace);
      let s =
        Replay.simulate_sharded_stream stream ~shards ~layout ~config
      in
      Alcotest.(check bool)
        (Printf.sprintf "streamed counts identical (shards=%d)" shards)
        true
        (s.Replay.counts = in_memory.Replay.counts);
      Alcotest.(check bool)
        (Printf.sprintf "streamed epochs identical (shards=%d)" shards)
        true
        (s.Replay.epochs = in_memory.Replay.epochs);
      Cell_trace.Stream.close stream;
      (match Cell_trace.Stream.iter_chunks (fun _ _ -> ()) stream with
       | () -> Alcotest.fail "expected Invalid_argument after close"
       | exception Invalid_argument _ -> ()))
    [ 1; 3 ];
  Sys.remove path

(* The routing surface: Sim.cache_sim and Pipeline.run with shards > 1
   must report the same counts (and per-block table) as their
   single-core defaults. *)
let test_routing_equivalence () =
  let w = Ws.find "raytrace" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let recorded = Sim.record prog ~nprocs in
  let plan = E.plan_for w W.C prog ~nprocs ~scale:1 in
  List.iter
    (fun block ->
      let single = Sim.cache_sim ~recorded prog plan ~nprocs ~block in
      let sharded =
        Sim.cache_sim ~shards:3 ~recorded prog plan ~nprocs ~block
      in
      Alcotest.(check bool)
        (Printf.sprintf "cache_sim counts at block %d" block)
        true
        (single.Sim.counts = sharded.Sim.counts))
    [ 16; 128 ];
  let p1 = Falseshare.Pipeline.run prog ~nprocs ~block:128 in
  let p3 = Falseshare.Pipeline.run ~shards:3 prog ~nprocs ~block:128 in
  Alcotest.(check bool) "pipeline counts" true
    (p1.Falseshare.Pipeline.cache.Sim.counts
    = p3.Falseshare.Pipeline.cache.Sim.counts);
  Alcotest.(check bool) "pipeline per-block" true
    (p1.Falseshare.Pipeline.cache.Sim.per_block
    = p3.Falseshare.Pipeline.cache.Sim.per_block);
  (* epochs pin the run to the listener path: the epoch list must be
     populated even when shards are requested *)
  let pe = Falseshare.Pipeline.run ~shards:3 ~epochs:true prog ~nprocs ~block:128 in
  Alcotest.(check bool) "epochs still tracked" true
    (match pe.Falseshare.Pipeline.epochs with
     | Some (_ :: _) -> true
     | _ -> false)

let suite =
  [ Alcotest.test_case "sharded count equivalence (all benchmarks)" `Quick
      test_sharded_equivalence;
    Alcotest.test_case "epoch reconciliation vs phases tracker" `Quick
      test_epoch_reconciliation;
    Alcotest.test_case "shard hash set-aligned" `Quick
      test_shard_hash_set_aligned;
    Alcotest.test_case "streamed replay identity" `Quick
      test_stream_replay_identity;
    Alcotest.test_case "sim/pipeline sharded routing" `Quick
      test_routing_equivalence ]
