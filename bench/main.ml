(* The benchmark harness.

   Running with no arguments regenerates every table and figure of the
   paper's evaluation (Section 5) — Figure 3, Table 2, Figure 4, Table 3,
   the headline statistics quoted in the text, and the execution-time
   improvements — and then times the pipeline components with Bechamel.

   A single argument selects one piece:
     fig3 | table2 | fig4 | table3 | stats | exectime | replay | simspeed |
     engine | tracefmt | tracescale | telemetry | micro |
     ablation | repair | stealing | phases | ratio
   plus `quick`, which shrinks the processor sweep for a fast pass,
   `baseline`, which runs the quick pass and seeds bench/BASELINE.json,
   and `check`, which runs the quick pass and fails (exit 1) if any
   deterministic section drifted from the committed baseline, ran
   slower than the baseline by more than the tolerance factor
   (`--tolerance F`, default 10), or if `Pipeline.run`'s replay,
   `Interp.record` or the trace codec (write a v2 file, replay it
   streamed) ran below its floor fraction of the fused engine's events/s
   in this run (`ratio`: 0.4, 0.1 and 0.21; each the median of paired
   trials).
   `--jobs N` sets the number of worker domains that independent runs
   fan out over (default: the FALSESHARE_JOBS environment variable, else
   the recommended domain count).

   Besides the text tables, every run writes BENCH_results.json
   (atomically: temp file + rename) — the same records in
   machine-readable form (via Falseshare.Emit), with the wall-clock
   seconds each section took, the job count, and the measured
   replay-vs-reinterpret speedup. *)

module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module T = Fs_transform.Transform
module Plan = Fs_layout.Plan
module Layout = Fs_layout.Layout
module Interp = Fs_interp.Interp
module C = Fs_cache.Mpcache
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads

module Json = Fs_obs.Json
module Emit = Falseshare.Emit
module Ct = Fs_trace.Cell_trace

let section title = Printf.printf "\n=== %s ===\n\n" title

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let tmp_trace tag =
  Filename.temp_file (Printf.sprintf "fs-bench-%s-" tag) ".fstrace"

(* accumulated for BENCH_results.json, in run order *)
let results : (string * Json.t) list ref = ref []

let record name ~seconds payload =
  results :=
    (name, Json.Obj [ ("seconds", Json.float seconds); ("data", payload) ])
    :: !results

(* written atomically so a concurrent reader (or an interrupted run)
   never sees a partial file *)
let write_results ~quick ~jobs ~seconds =
  let path = "BENCH_results.json" in
  let j =
    Json.Obj
      [ ("harness", Json.String "falseshare bench");
        ("quick", Json.Bool quick);
        ("jobs", Json.Int jobs);
        ("total_seconds", Json.float seconds);
        ("sections", Json.Obj (List.rev !results)) ]
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Json.to_channel ~compact:false oc j;
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path;
  Printf.printf "\nwrote %s (%d sections)\n" path (List.length !results)

(* ------------------------------------------------------------------ *)
(* Paper reproductions                                                 *)

let fig3 ~jobs () =
  section "Figure 3 - miss rates, unoptimized vs compiler-transformed \
           (16B and 128B blocks; paper: white bar = false sharing)";
  let rows, dt = time_it (fun () -> E.figure3 ~jobs ()) in
  print_string (E.render_figure3 rows);
  record "fig3" ~seconds:dt (Emit.fig3 rows);
  Printf.printf "(%.1fs)\n" dt

let table2 ~jobs () =
  section "Table 2 - false-sharing reduction by transformation \
           (averaged over 8-256B blocks)";
  let rows, dt = time_it (fun () -> E.table2 ~jobs ()) in
  print_string (E.render_table2 rows);
  record "table2" ~seconds:dt (Emit.table2 rows);
  print_string
    "\npaper:    maxflow 56.5% (pad 49.2, locks 7.3) | pverify 91.2% (g&t 6.4, \
     ind 81.6, locks 3.1)\n\
    \          topopt 79.9% (g&t 61.3, ind 18.6) | fmm 90.8% (g&t 84.8, locks 6.0)\n\
    \          radiosity 93.5% (g&t 85.6, pad 1.0, locks 6.8) | raytrace 78.3% \
     (g&t 70.4, pad 3.3, locks 4.6)\n";
  Printf.printf "(%.1fs)\n" dt

let fig4 ~procs ~jobs () =
  section "Figure 4 - scalability of the three representative programs \
           (speedup vs processors, relative to unoptimized uniprocessor)";
  let series, dt = time_it (fun () -> E.figure4 ?procs ~jobs ()) in
  print_string (E.render_series series);
  record "fig4" ~seconds:dt (Emit.series series);
  print_string
    "paper maxima: raytrace 7.0/9.6/9.2 | fmm 16.4/33.6/16.4 | pverify 2.5/5.9/3.5\n";
  Printf.printf "(%.1fs)\n" dt

let table3 ~procs ~jobs () =
  section "Table 3 - maximum speedup (and processor count) per version";
  let series, dt = time_it (fun () -> E.speedups ?procs ~jobs ()) in
  let rows = E.table3 ~series () in
  print_string (E.render_table3 rows);
  record "table3" ~seconds:dt (Emit.table3 rows);
  print_string
    "\npaper:    maxflow 1.4(8)/4.3(16) | pverify 2.5(16)/5.9(16)/3.5(8) | \
     topopt 9.2(44)/10.3(28)/10.2(28)\n\
    \          fmm 16.4(20)/33.6(48+)/16.4(20) | radiosity 7.0(8)/19.2(28)/7.4(8) | \
     raytrace 7.0(8)/9.6(12)/9.2(12)\n\
    \          locusroute -/12.3(20)/12.0(20) | mp3d -/2.9(28)/1.3(4) | \
     pthor -/2.8(4)/2.2(4) | water -/9.9(40)/4.6(12)\n";
  Printf.printf "(%.1fs)\n" dt

let stats ~jobs () =
  section "Headline statistics (abstract / Section 1)";
  let s, dt = time_it (fun () -> E.text_stats ~jobs ()) in
  print_string (E.render_stats s);
  record "stats" ~seconds:dt (Emit.stats s);
  Printf.printf "(%.1fs)\n" dt

let exectime ~procs ~jobs () =
  section "Execution-time improvements while the unoptimized version still \
           scales (Section 5; paper: fmm 3%, radiosity 6%, raytrace 2%, \
           maxflow 50%, pverify 58%, topopt 20%)";
  let rows, dt = time_it (fun () -> E.exec_time_improvements ?procs ~jobs ()) in
  print_string (E.render_exec rows);
  record "exectime" ~seconds:dt (Emit.exec rows);
  Printf.printf "(%.1fs)\n" dt

(* ------------------------------------------------------------------ *)
(* The refactor's headline: record once, replay per layout             *)

let replay_bench ~jobs () =
  section "Replay vs re-interpretation (one block-size sweep of pverify)";
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
  let blocks = [ 8; 16; 32; 64; 128; 256 ] in
  let direct, t_direct =
    time_it (fun () ->
        List.map
          (fun block ->
            (Sim.cache_sim prog Plan.empty ~nprocs ~block).Sim.counts)
          blocks)
  in
  let replayed, t_replay =
    time_it (fun () ->
        let recorded = Sim.record prog ~nprocs in
        Fs_util.Par.map ~jobs
          (fun block ->
            (Sim.cache_sim ~recorded prog Plan.empty ~nprocs ~block).Sim.counts)
          blocks)
  in
  assert (direct = replayed);
  let speedup = if t_replay > 0. then t_direct /. t_replay else 0. in
  Printf.printf
    "re-interpret per block size: %.2fs\nrecord once + replay:        %.2fs\n\
     speedup: %.2fx (jobs=%d, identical counts)\n"
    t_direct t_replay speedup jobs;
  record "replay" ~seconds:(t_direct +. t_replay)
    (Json.Obj
       [ ("reinterpret_seconds", Json.float t_direct);
         ("replay_seconds", Json.float t_replay);
         ("speedup", Json.float speedup);
         ("jobs", Json.Int jobs) ])

(* ------------------------------------------------------------------ *)
(* The simulator hot path, three ways over the same recorded trace:
   the engine the flat-array rewrite replaced (bench/legacy_cache.ml:
   hashtables + int-list LRU sets, driven through the listener path),
   the live flat-array engine on the same listener path, and the fused
   packed-replay loop, in memory and streamed from a v2 file.  legacy ->
   fused is the rewrite's total win; reference -> fused isolates the
   per-event unpack + dispatch + outcome-boxing cost the fused loop
   removes; fused -> streamed is the cost of decoding.                 *)

let simspeed () =
  section "Simulator hot path - fused packed replay vs listener paths \
           (pverify, unoptimized, 128B)";
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  (* 4x the experiment scale: a longer trace amortizes per-run setup
     (cache construction) so the measurement is per-event throughput *)
  let prog = w.W.build ~nprocs ~scale:(4 * w.W.default_scale) in
  let recorded = Sim.record prog ~nprocs in
  let layout = Layout.default prog ~block:128 in
  let max_addr = Layout.size layout in
  let events = Fs_trace.Cell_trace.length recorded.Sim.trace in
  let reps = 10 in
  let legacy () =
    let c = Legacy_cache.create (C.default_config ~nprocs ~block:128) in
    Fs_replay.Replay.replay_to_sink recorded.Sim.trace ~layout
      ~sink:(Legacy_cache.sink c);
    Legacy_cache.counts c
  in
  let reference () =
    let c = C.create ~max_addr (C.default_config ~nprocs ~block:128) in
    Fs_replay.Replay.replay_to_sink recorded.Sim.trace ~layout
      ~sink:(C.sink c);
    C.counts c
  in
  let fused () =
    let c = C.create ~max_addr (C.default_config ~nprocs ~block:128) in
    (Fs_replay.Replay.simulate recorded.Sim.trace ~layout ~cache:c)
      .Fs_replay.Replay.counts
  in
  (* the same trace from the on-disk v2 form, one block at a time
     through the engine's reused buffer, so the trace never
     materializes as an array *)
  let v2_path = tmp_trace "simspeed" in
  Ct.write_file recorded.Sim.trace v2_path;
  let stream = Ct.of_file_stream v2_path in
  let trace_bytes = Ct.Stream.byte_size stream in
  let streamed () =
    let c = C.create ~max_addr (C.default_config ~nprocs ~block:128) in
    (Fs_replay.Replay.simulate_stream stream ~layout ~cache:c)
      .Fs_replay.Replay.counts
  in
  (* identical counts is load-bearing: the throughput comparison is only
     meaningful because the four runs are interchangeable *)
  let c_fused = fused () in
  assert (legacy () = c_fused);
  assert (reference () = c_fused);
  assert (streamed () = c_fused);
  (* interleaved trials, min per engine: each engine sees the same
     machine conditions within a round, and the min is insensitive to
     GC pauses and scheduler noise on these short runs.  The
     full_major keeps one engine's garbage from being collected on
     another engine's clock. *)
  let t_legacy = ref infinity and t_ref = ref infinity
  and t_fused = ref infinity and t_stream = ref infinity in
  let trial best f =
    Gc.full_major ();
    let t = snd (time_it (fun () ->
        for _ = 1 to reps do ignore (f ()) done))
    in
    if t < !best then best := t
  in
  for _ = 1 to 4 do
    trial t_legacy legacy;
    trial t_ref reference;
    trial t_fused fused;
    trial t_stream streamed
  done;
  Ct.Stream.close stream;
  Sys.remove v2_path;
  let t_legacy = !t_legacy and t_ref = !t_ref and t_fused = !t_fused
  and t_stream = !t_stream in
  let rate t =
    if t > 0. then float_of_int (events * reps) /. t /. 1e6 else 0.
  in
  let speedup num den = if den > 0. then num /. den else 0. in
  (* effective read bandwidth of the streamed run *)
  let mbs =
    if t_stream > 0. then
      float_of_int (trace_bytes * reps) /. t_stream /. (1024. *. 1024.)
    else 0.
  in
  Printf.printf
    "pre-rewrite engine, listener path: %.3fs  (%.1f Mevents/s)\n\
     flat-array engine, listener path:  %.3fs  (%.1f Mevents/s)\n\
     flat-array engine, fused loop:     %.3fs  (%.1f Mevents/s)\n\
     fused loop, streamed v2 file:      %.3fs  (%.1f Mevents/s, %.1f MB/s \
     read)\n\
     fused vs pre-rewrite: %.2fx | fused vs listener path: %.2fx \
     (%d events x%d, identical counts)\n"
    t_legacy (rate t_legacy) t_ref (rate t_ref) t_fused (rate t_fused)
    t_stream (rate t_stream) mbs
    (speedup t_legacy t_fused) (speedup t_ref t_fused) events reps;
  record "simspeed" ~seconds:(t_legacy +. t_ref +. t_fused +. t_stream)
    (Json.Obj
       [ ("events", Json.Int events);
         ("reps", Json.Int reps);
         ("legacy_seconds", Json.float t_legacy);
         ("reference_seconds", Json.float t_ref);
         ("fused_seconds", Json.float t_fused);
         ("legacy_mevents_per_s", Json.float (rate t_legacy));
         ("reference_mevents_per_s", Json.float (rate t_ref));
         ("fused_mevents_per_s", Json.float (rate t_fused));
         ("speedup_vs_legacy", Json.float (speedup t_legacy t_fused));
         ("speedup_vs_reference", Json.float (speedup t_ref t_fused));
         ("trace_bytes", Json.Int trace_bytes);
         ("streamed_v2",
          Json.Obj
            [ ("seconds", Json.float t_stream);
              ("mevents_per_s", Json.float (rate t_stream));
              ("mb_per_s", Json.float mbs);
              ("counts_identical", Json.Bool true) ]) ])

(* ------------------------------------------------------------------ *)
(* The on-disk trace format: file size and the streamed replay path.
   File sizes and replay counts are pure functions of the workload (the
   interpreter's schedule and the encoding are both deterministic), so
   `tracefmt` sits inside the baseline gate; the `tracescale` timings
   are wall-clock and stay out of it.                                  *)

let tracefmt () =
  section "Trace format - on-disk bytes, streamed counts identical (every \
           workload, default scale, 128B)";
  let module R = Fs_replay.Replay in
  let t0 = Unix.gettimeofday () in
  let rows = ref [] in
  let payloads =
    List.map
      (fun (w : W.t) ->
        let nprocs = w.fig3_procs in
        let prog = w.build ~nprocs ~scale:w.default_scale in
        let recorded = Sim.record prog ~nprocs in
        let trace = recorded.Sim.trace in
        let events = Ct.length trace in
        let layout = Layout.default prog ~block:128 in
        let config = C.default_config ~nprocs ~block:128 in
        let cache () = C.create ~max_addr:(Layout.size layout) config in
        let reference = (R.simulate trace ~layout ~cache:(cache ())).R.counts in
        (* the file must replay from disk to the exact in-memory counts —
           the size only matters if the round trip is lossless *)
        let path = tmp_trace w.name in
        Ct.write_file trace path;
        let s = Ct.of_file_stream path in
        let st = R.simulate_stream s ~layout ~cache:(cache ()) in
        assert (st.R.counts = reference);
        let bytes = Ct.Stream.byte_size s in
        Ct.Stream.close s;
        Sys.remove path;
        let bpe = float_of_int bytes /. float_of_int (max 1 events) in
        rows :=
          [ w.name; string_of_int events; string_of_int bytes;
            Printf.sprintf "%.2f" bpe; "yes" ]
          :: !rows;
        Json.Obj
          [ ("workload", Json.String w.name);
            ("events", Json.Int events);
            ("v2_bytes", Json.Int bytes);
            ("v2_bytes_per_event", Json.float bpe);
            ("streamed_counts_identical", Json.Bool true) ])
      Ws.all
  in
  print_string
    (Fs_util.Table.render
       ~header:
         [ "program"; "events"; "bytes"; "B/event"; "identical" ]
       (List.rev !rows));
  record "tracefmt" ~seconds:(Unix.gettimeofday () -. t0) (Json.List payloads)

(* the scale-up path: stream a >=10^8-event recording to disk (constant
   memory while recording), then replay it streamed through the engine —
   the whole point of v2 is that neither side ever holds the trace, so
   peak heap stays at one decoded block while the file runs to hundreds
   of megabytes *)

let tracefmt_scale () =
  section "Trace format v2 - 10^8-event recordings streamed end to end \
           (record -> v2 file -> streamed replay, bounded heap)";
  let module R = Fs_replay.Replay in
  let t0 = Unix.gettimeofday () in
  let target = 100_000_000 in
  let payloads =
    List.map
      (fun name ->
        let w = Ws.find name in
        let nprocs = w.W.fig3_procs in
        (* event yield per scale is workload-specific and not always
           linear, so fit a power law through two cheap probes and solve
           for the target (with a 5% overshoot) *)
        let probe s =
          let prog = w.W.build ~nprocs ~scale:s in
          float_of_int (Ct.length (Sim.record prog ~nprocs).Sim.trace)
        in
        let s0 = w.W.default_scale in
        let s1 = 16 * s0 in
        let e0 = probe s0 and e1 = probe s1 in
        let b = log (e1 /. e0) /. log (float_of_int s1 /. float_of_int s0) in
        let scale =
          max s1
            (int_of_float
               (ceil
                  (float_of_int s0
                  *. ((1.1 *. float_of_int target /. e0) ** (1. /. b)))))
        in
        let prog = w.W.build ~nprocs ~scale in
        let path = tmp_trace ("scale-" ^ name) in
        let wr = Ct.Writer.create ~vars:(Interp.vars prog) ~nprocs path in
        let record_s =
          snd
            (time_it (fun () ->
                 (* the default nontermination guard is sized for
                    experiment-scale runs; a 10^8-event capture is
                    legitimately ~50x that *)
                 match
                   Interp.run_cells ~max_steps:max_int prog ~nprocs
                     ~cells:(Ct.Writer.recorder wr)
                 with
                 | _ -> Ct.Writer.close wr
                 | exception e ->
                   Ct.Writer.abort wr;
                   raise e))
        in
        let events = Ct.Writer.length wr in
        assert (events >= target);
        let bytes = (Unix.stat path).Unix.st_size in
        let layout = Layout.default prog ~block:128 in
        let config = C.default_config ~nprocs ~block:128 in
        let s = Ct.of_file_stream path in
        let cache = C.create ~max_addr:(Layout.size layout) config in
        let st, replay_s =
          time_it (fun () -> R.simulate_stream s ~layout ~cache)
        in
        assert (C.accesses st.R.counts > 0);
        let epochs = Array.length st.R.epochs in
        (* the decode buffer: one block of boxed ints — the streamed
           engine's whole per-trace allocation *)
        let buffer_bytes = Ct.Stream.max_block_events s * 8 in
        Ct.Stream.close s;
        Sys.remove path;
        let top_heap_mb =
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8)
          /. (1024. *. 1024.)
        in
        let rate = float_of_int events /. 1e6 /. Float.max 1e-9 replay_s in
        let mbs =
          float_of_int bytes /. (1024. *. 1024.) /. Float.max 1e-9 replay_s
        in
        Printf.printf
          "%-10s %9d events -> %d bytes (%.2f B/event) in %.1fs; streamed \
           replay %.1fs (%.1f Mevents/s, %.1f MB/s, %d epochs)\n\
           %-10s decode buffer %.1f MB, process top-of-heap %.1f MB (the \
           in-memory trace alone would need %.0f MB)\n"
          name events bytes
          (float_of_int bytes /. float_of_int events)
          record_s replay_s rate mbs epochs ""
          (float_of_int buffer_bytes /. (1024. *. 1024.))
          top_heap_mb
          (float_of_int (events * 8) /. (1024. *. 1024.));
        Json.Obj
          [ ("workload", Json.String name);
            ("nprocs", Json.Int nprocs);
            ("scale", Json.Int scale);
            ("events", Json.Int events);
            ("bytes", Json.Int bytes);
            ("bytes_per_event",
             Json.float (float_of_int bytes /. float_of_int events));
            ("record_seconds", Json.float record_s);
            ("replay_seconds", Json.float replay_s);
            ("replay_mevents_per_s", Json.float rate);
            ("replay_mb_per_s", Json.float mbs);
            ("epochs", Json.Int epochs);
            ("decode_buffer_bytes", Json.Int buffer_bytes);
            ("top_heap_mb", Json.float top_heap_mb) ])
      [ "pverify"; "maxflow" ]
  in
  record "tracescale" ~seconds:(Unix.gettimeofday () -. t0)
    (Json.List payloads)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the flight recorder's budget is <3% on the fused
   replay loop.  Same methodology as simspeed — interleaved min-of-N
   trials over the same trace — comparing the loop without a recorder
   (one chunk) against the same loop cut into interval-sized chunks
   with a sample at each boundary.                                     *)

let telemetry_bench () =
  section "Telemetry - flight recorder overhead on the fused replay loop \
           (pverify, unoptimized, 128B)";
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:(4 * w.W.default_scale) in
  let recorded = Sim.record prog ~nprocs in
  let layout = Layout.default prog ~block:128 in
  let max_addr = Layout.size layout in
  let events = Fs_trace.Cell_trace.length recorded.Sim.trace in
  let reps = 10 in
  let flight = Fs_replay.Flight.create () in
  let run_fused flight () =
    let c = C.create ~max_addr (C.default_config ~nprocs ~block:128) in
    (Fs_replay.Replay.simulate ?flight recorded.Sim.trace ~layout ~cache:c)
      .Fs_replay.Replay.counts
  in
  (* counts must be bit-identical with the recorder on or off — the
     recorder only reads the live counters, never feeds them *)
  let c_off = run_fused None () in
  let c_on = run_fused (Some flight) () in
  let counts_identical = c_off = c_on in
  assert counts_identical;
  let t_off = ref infinity and t_on = ref infinity in
  let trial best f =
    Gc.full_major ();
    let t = snd (time_it (fun () ->
        for _ = 1 to reps do ignore (f ()) done))
    in
    if t < !best then best := t
  in
  (* eight interleaved trials: the recorder does zero per-event
     work, so the measured delta is min-of-N jitter — more trials tighten
     both minima and keep the reported ratio honest on a noisy box *)
  for _ = 1 to 8 do
    trial t_off (run_fused None);
    trial t_on (run_fused (Some flight))
  done;
  let t_off = !t_off and t_on = !t_on in
  let overhead = if t_off > 0. then (t_on -. t_off) /. t_off else 0. in
  let d = Fs_replay.Flight.digest flight in
  Printf.printf
    "recorder off: %.3fs | recorder on: %.3fs | overhead %+.1f%% \
     (budget <3%%)\n\
     %d samples every %d events, counts identical: %b\n"
    t_off t_on (overhead *. 100.)
    d.Fs_replay.Flight.d_taken d.Fs_replay.Flight.d_interval counts_identical;
  record "telemetry-overhead" ~seconds:(t_off +. t_on)
    (Json.Obj
       [ ("events", Json.Int events);
         ("reps", Json.Int reps);
         ("off_seconds", Json.float t_off);
         ("on_seconds", Json.float t_on);
         ("overhead_ratio", Json.float (if t_off > 0. then t_on /. t_off else 0.));
         ("overhead_pct", Json.float (overhead *. 100.));
         ("interval", Json.Int d.Fs_replay.Flight.d_interval);
         ("samples", Json.Int d.Fs_replay.Flight.d_taken);
         ("counts_identical", Json.Bool counts_identical) ])

(* ------------------------------------------------------------------ *)
(* Ratio gates: a layer's events/s against the fused engine's          *)

(* Each gate times two sides of one job in the same run, so the ratio
   carries across machines where a wall-clock tolerance does not.  A
   trial times both sides back to back, in alternating order, so a slow
   stretch on a shared box lands on both sides of one trial; the gate
   reads the median of the per-trial ratios.  [layer] and [fused] return
   the seconds their side took; the ratio is the layer's events/s over
   the fused engine's. *)
let ratio_trials = 9

let paired_ratio ~layer ~fused =
  let after_gc f =
    Gc.full_major ();
    f ()
  in
  let trial k =
    if k mod 2 = 0 then
      let l = after_gc layer in
      (l, after_gc fused)
    else
      let f = after_gc fused in
      (after_gc layer, f)
  in
  let trials = List.init ratio_trials trial in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  ( median (List.map (fun (l, f) -> f /. l) trials),
    median (List.map fst trials),
    median (List.map snd trials) )

type gate = { name : string; what : string; ratio : float; floor : float }

(* print, record under [name] (seconds are per-side medians) and return
   the gate *)
let ratio_gate ~name ~what ~floor ~events ~layer_key (ratio, layer, fused) =
  let meps t = float_of_int events /. t /. 1e6 in
  Printf.printf
    "%d events | %s %.1f Mevents/s | fused %.1f Mevents/s | ratio %.2f \
     (median of %d paired trials; floor %.2f)\n"
    events what (meps layer) (meps fused) ratio ratio_trials floor;
  record name ~seconds:(layer +. fused)
    (Json.Obj
       [ ("events", Json.Int events);
         (layer_key, Json.float layer);
         ("fused_seconds", Json.float fused);
         ("ratio", Json.float ratio);
         ("trials", Json.Int ratio_trials);
         ("floor", Json.float floor) ]);
  { name; what; ratio; floor }

(* all ratio gates time pverify at its Figure 3 processor count and
   four times its default scale (~1.5M events) *)
let ratio_program () =
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  (w.W.build ~nprocs ~scale:(4 * w.W.default_scale), nprocs)

let untracked_replay_seconds trace ~layout ~nprocs ~block () =
  let cache =
    C.create ~max_addr:(Layout.size layout) (C.default_config ~nprocs ~block)
  in
  snd (time_it (fun () -> Fs_replay.Replay.simulate trace ~layout ~cache))

(* [Pipeline.run]'s tracked replay plus its interp_* counting pass must
   keep within this fraction of an untracked fused replay's events/s.  A
   per-event listener on the pipeline's walk runs at ~0.04; the engine
   route at ~0.7. *)
let pipeline_ratio_floor = 0.4

let pipeline_ratio () =
  section "Pipeline replay vs fused engine (pverify, compiler plan, 128B)";
  let prog, nprocs = ratio_program () in
  let block = 128 in
  let trace = (Sim.record prog ~nprocs).Sim.trace in
  let events = Ct.length trace in
  let layout = Layout.realize prog (T.plan prog ~nprocs).T.plan ~block in
  (* the pipeline's own replay+cache entry: its walk over the same
     recording (recording is deterministic) and its counting pass *)
  let pipeline () =
    let r = Falseshare.Pipeline.run prog ~nprocs ~block in
    let e =
      List.find
        (fun (e : Fs_obs.Profile.entry) -> e.name = "replay+cache")
        (Fs_obs.Profile.entries r.Falseshare.Pipeline.profile)
    in
    assert (e.events = events);
    e.seconds
  in
  paired_ratio ~layer:pipeline
    ~fused:(untracked_replay_seconds trace ~layout ~nprocs ~block)
  |> ratio_gate ~name:"pipeline-ratio" ~what:"pipeline replay+cache"
       ~floor:pipeline_ratio_floor ~events ~layer_key:"pipeline_seconds"

(* [Interp.record]'s events/s must keep within this fraction of an
   untracked fused replay of the trace it records.  On a 2-core x86-64
   container, 10 readings of the unboxed interpreter gave 0.12-0.17
   (5.5-7.1 Mevents/s); the boxed one it replaced read 0.07-0.08 in 5
   (2.4-3.1 Mevents/s). *)
let interp_ratio_floor = 0.10

let interp_ratio () =
  section "Interpreter recording vs fused engine (pverify, packed layout, 128B)";
  let prog, nprocs = ratio_program () in
  let block = 128 in
  let trace = fst (Fs_interp.Interp.record prog ~nprocs) in
  let events = Ct.length trace in
  let layout = Layout.realize prog [] ~block in
  let recording () =
    let (t, _), dt = time_it (fun () -> Fs_interp.Interp.record prog ~nprocs) in
    assert (Ct.length t = events);
    dt
  in
  paired_ratio ~layer:recording
    ~fused:(untracked_replay_seconds trace ~layout ~nprocs ~block)
  |> ratio_gate ~name:"interp-ratio" ~what:"Interp.record"
       ~floor:interp_ratio_floor ~events ~layer_key:"record_seconds"

(* Writing a recording to a v2 file and replaying it streamed
   ([write_file] then [simulate_stream]) must keep within this fraction
   of an untracked in-memory replay's events/s.  On a 2-core x86-64
   container, 12 alternating runs of each side: 0.24-0.27 with the
   inline-shift encoder, sliced CRC-32 and tighter block decoder,
   0.15-0.17 with the codec they replaced. *)
let codec_ratio_floor = 0.21

let codec_ratio () =
  section "Trace codec vs fused engine (pverify, compiler plan, 128B)";
  let module R = Fs_replay.Replay in
  let prog, nprocs = ratio_program () in
  let block = 128 in
  let trace = (Sim.record prog ~nprocs).Sim.trace in
  let events = Ct.length trace in
  let layout = Layout.realize prog (T.plan prog ~nprocs).T.plan ~block in
  let config = C.default_config ~nprocs ~block in
  let reference =
    (R.simulate trace ~layout ~cache:(C.create ~max_addr:(Layout.size layout) config))
      .R.counts
  in
  let codec () =
    (* a fresh name each trial: renaming over an existing file can make
       the filesystem flush it, timing the disk instead of the codec *)
    let path = tmp_trace "codec" in
    Sys.remove path;
    let cache = C.create ~max_addr:(Layout.size layout) config in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let counts, dt =
          time_it (fun () ->
              Ct.write_file trace path;
              let s = Ct.of_file_stream path in
              Fun.protect
                ~finally:(fun () -> Ct.Stream.close s)
                (fun () -> (R.simulate_stream s ~layout ~cache).R.counts))
        in
        assert (counts = reference);
        dt)
  in
  paired_ratio ~layer:codec
    ~fused:(untracked_replay_seconds trace ~layout ~nprocs ~block)
  |> ratio_gate ~name:"codec-ratio" ~what:"write_file + simulate_stream"
       ~floor:codec_ratio_floor ~events ~layer_key:"codec_seconds"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)

let ablation () =
  section "Ablations - lock padding, static profiling, RSD merge limit \
           (residual false-sharing misses at 128B under each compiler variant)";
  let header = [ "program"; "full"; "no lock pad"; "no profiling"; "rsd limit 1" ] in
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map
      (fun (w : W.t) ->
        let nprocs = w.fig3_procs in
        let prog = w.build ~nprocs ~scale:w.default_scale in
        let recorded = Sim.record prog ~nprocs in
        let fs_with options =
          let plan = (T.plan ~options prog ~nprocs).T.plan in
          (Sim.cache_sim ~recorded prog plan ~nprocs ~block:128)
            .Sim.counts.C.false_sh
        in
        let base = fs_with T.default_options in
        let nolocks = fs_with { T.default_options with pad_locks = false } in
        let noprof = fs_with { T.default_options with profile = false } in
        let rsd1 = fs_with { T.default_options with rsd_limit = 1 } in
        [ w.name; string_of_int base; string_of_int nolocks;
          string_of_int noprof; string_of_int rsd1 ])
      (Ws.simulated ())
  in
  print_string (Fs_util.Table.render ~header rows);
  record "ablation" ~seconds:(Unix.gettimeofday () -. t0)
    (Json.List
       (List.map
          (fun row ->
            match row with
            | [ name; base; nolocks; noprof; rsd1 ] ->
              Json.Obj
                [ ("program", Json.String name);
                  ("full", Json.Int (int_of_string base));
                  ("no_lock_pad", Json.Int (int_of_string nolocks));
                  ("no_profiling", Json.Int (int_of_string noprof));
                  ("rsd_limit_1", Json.Int (int_of_string rsd1)) ]
            | _ -> Json.Null)
          rows))

(* ------------------------------------------------------------------ *)
(* Feedback repair: the profile-guided refinement loop                 *)

let repair_bench ~jobs () =
  section "Feedback repair - N/C/P/F comparison (compiler and programmer \
           plans refined to fixpoint; 16B and 128B blocks)";
  let rows, dt =
    time_it (fun () -> Fs_feedback.Repair_experiments.table ~jobs ())
  in
  print_string (Fs_feedback.Repair_experiments.render rows);
  record "repair" ~seconds:dt (Fs_feedback.Repair_experiments.to_json rows);
  Printf.printf "(%.1fs)\n" dt

(* ------------------------------------------------------------------ *)
(* Work stealing: the dynamic family the static planner cannot see     *)

let stealing_bench ~jobs () =
  section "Work stealing - N/C/F on the dynamic workload family \
           (deterministic scheduler, seed 42; 16B and 128B blocks)";
  let module RE = Fs_feedback.Repair_experiments in
  let rows, dt = time_it (fun () -> RE.stealing_table ~seed:42 ~jobs ()) in
  print_string (RE.render_stealing rows);
  (* the dynamic family's reason to exist: the compiler plan is made from
     the AST, which shows neither the scheduler's deques nor where stolen
     tasks land, so C leaves false sharing behind that the profile-guided
     repair must remove — by at least half, on at least two workloads *)
  let qualifying =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : RE.steal_row) ->
           let c = r.RE.scompiler.RE.false_sharing in
           let f = r.RE.sfeedback.RE.rcell.RE.false_sharing in
           if c > 0 && 2 * (c - f) >= c then Some r.RE.sname else None)
         rows)
  in
  Printf.printf
    "\nworkloads where repair removes >=50%% of the false sharing the \
     compiler plan left: %s\n"
    (String.concat ", " qualifying);
  if List.length qualifying < 2 then begin
    print_endline
      "stealing: FAILED — expected >=50% C->F removal on at least 2 dynamic \
       workloads";
    exit 1
  end;
  let json = RE.stealing_to_json rows in
  record "stealing" ~seconds:dt json;
  (* a standalone artifact for CI, next to BENCH_results.json *)
  let oc = open_out "stealing_ncpf.json" in
  Json.to_channel ~compact:false oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "(%.1fs; wrote stealing_ncpf.json)\n" dt

(* ------------------------------------------------------------------ *)
(* Phase-resolved sharing: per-epoch profiles + tracking overhead      *)

let phases_bench () =
  section "Per-epoch sharing profile (pverify and topopt, unoptimized, 128B)";
  let t0 = Unix.gettimeofday () in
  let payloads =
    List.map
      (fun name ->
        let w = Ws.find name in
        let nprocs = w.W.fig3_procs in
        let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
        let p = Falseshare.Phases.analyze prog Plan.empty ~nprocs ~block:128 in
        Printf.printf "--- %s ---\n" name;
        print_string (Falseshare.Phases.render p);
        print_newline ();
        (name, Emit.phases p))
      [ "pverify"; "topopt" ]
  in
  record "phases" ~seconds:(Unix.gettimeofday () -. t0)
    (Json.Obj payloads);
  (* epoch + line tracking is opt-in; measure what turning it on costs a
     replay of the same recorded trace (separate section: timings are
     machine-dependent, so `check` must not compare them) *)
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
  let recorded = Sim.record prog ~nprocs in
  let layout = Layout.default prog ~block:128 in
  let reps = 5 in
  let _, plain =
    time_it (fun () ->
        for _ = 1 to reps do
          let cache = C.create (C.default_config ~nprocs ~block:128) in
          Fs_replay.Replay.replay_to_sink recorded.Sim.trace ~layout
            ~sink:(C.sink cache)
        done)
  in
  let _, tracked =
    time_it (fun () ->
        for _ = 1 to reps do
          let cache =
            C.create ~track_lines:true (C.default_config ~nprocs ~block:128)
          in
          let tracker, close = Falseshare.Phases.tracker cache in
          Fs_replay.Replay.replay recorded.Sim.trace ~layout
            ~listener:
              (Fs_trace.Listener.combine
                 (Fs_trace.Listener.of_sink (C.sink cache))
                 tracker);
          ignore (close ())
        done)
  in
  let ratio = if plain > 0. then tracked /. plain else 1.0 in
  Printf.printf
    "tracking overhead (pverify replay x%d): plain %.3fs, epoch+line \
     tracking %.3fs (%.2fx)\n"
    reps plain tracked ratio;
  record "tracking_overhead" ~seconds:(plain +. tracked)
    (Json.Obj
       [ ("reps", Json.Int reps);
         ("plain_seconds", Json.float plain);
         ("tracked_seconds", Json.float tracked);
         ("ratio", Json.float ratio) ])

(* ------------------------------------------------------------------ *)
(* The replay engine: deterministic bit-identity + epoch reconciliation.
   Unlike the simspeed timings (wall-clock, nondeterministic),
   everything here is exact experiment data, so the baseline gate
   compares it bit for bit.                                            *)

let engine_bench () =
  section "Replay engine - bit-identity vs the listener path, in memory \
           and streamed (pverify and topopt, unoptimized, 16B and 128B)";
  let module R = Fs_replay.Replay in
  let t0 = Unix.gettimeofday () in
  let rows = ref [] in
  let payloads =
    List.concat_map
      (fun name ->
        let w = Ws.find name in
        let nprocs = w.W.fig3_procs in
        let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
        let recorded = Sim.record prog ~nprocs in
        (* the same trace from disk: every point below also replays the
           v2 file through the streamed engine and must land on the same
           counts, so the bit-identity evidence covers the on-disk path
           and reports the bytes it read *)
        let v2_path = tmp_trace ("engine-" ^ name) in
        Ct.write_file recorded.Sim.trace v2_path;
        let stream = Ct.of_file_stream v2_path in
        let trace_bytes = Ct.Stream.byte_size stream in
        let out =
          List.map
            (fun block ->
              let layout = Layout.default prog ~block in
              let config = C.default_config ~nprocs ~block in
              let cache () = C.create ~max_addr:(Layout.size layout) config in
              let reference =
                let c = cache () in
                R.replay_to_sink recorded.Sim.trace ~layout ~sink:(C.sink c);
                C.counts c
              in
              let s = R.simulate recorded.Sim.trace ~layout ~cache:(cache ()) in
              let identical = s.R.counts = reference in
              let esum = C.zero_counts () in
              Array.iter (fun e -> C.add_into esum e) s.R.epochs;
              let epochs_sum_ok = esum = s.R.counts in
              let streamed, stream_s =
                time_it (fun () ->
                    R.simulate_stream stream ~layout ~cache:(cache ()))
              in
              let stream_identical = streamed.R.counts = reference in
              (* load-bearing: a drifted engine must fail the bench run
                 itself, not just the baseline diff *)
              assert identical;
              assert epochs_sum_ok;
              assert stream_identical;
              let mbs =
                float_of_int trace_bytes /. (1024. *. 1024.)
                /. Float.max 1e-9 stream_s
              in
              rows :=
                [ name; string_of_int block;
                  string_of_int (C.misses s.R.counts);
                  string_of_int s.R.counts.C.false_sh;
                  string_of_int (Array.length s.R.epochs); "yes";
                  Printf.sprintf "%.0f" mbs ]
                :: !rows;
              Json.Obj
                [ ("workload", Json.String name);
                  ("block", Json.Int block);
                  ("identical", Json.Bool identical);
                  ("epochs", Json.Int (Array.length s.R.epochs));
                  ("epochs_sum_ok", Json.Bool epochs_sum_ok);
                  ("stream_identical", Json.Bool stream_identical);
                  ("trace_bytes", Json.Int trace_bytes);
                  ("counts", Emit.counts s.R.counts) ])
            [ 16; 128 ]
        in
        Ct.Stream.close stream;
        Sys.remove v2_path;
        out)
      [ "pverify"; "topopt" ]
  in
  print_string
    (Fs_util.Table.render
       ~header:
         [ "program"; "block"; "misses"; "false sh"; "epochs"; "identical";
           "stream MB/s" ]
       (List.rev !rows));
  record "engine" ~seconds:(Unix.gettimeofday () -. t0) (Json.List payloads)

(* ------------------------------------------------------------------ *)
(* Serving: daemon latency over loopback, cold store vs warm           *)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let serve_bench ~quick ~jobs () =
  section
    "Serving - daemon requests over loopback, cold (computed) vs warm \
     (content-addressed store hit)";
  let t0 = Unix.gettimeofday () in
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fs-bench-serve-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755;
  let t =
    Fs_serve.Server.start
      { Fs_serve.Server.default_config with workers = 2; jobs; cache_dir }
  in
  let port = Fs_serve.Server.port t in
  let reps = if quick then 20 else 100 in
  let timed_request body path =
    let t0 = Unix.gettimeofday () in
    let status, _, _ = Fs_serve.Http.request ~port ~body path in
    if status <> 200 then failwith (Printf.sprintf "%s -> %d" path status);
    Unix.gettimeofday () -. t0
  in
  let rows = ref [] in
  let payloads =
    List.map
      (fun endpoint ->
        let body = {|{"workload":"pverify","nprocs":8,"block":128}|} in
        let path = "/" ^ endpoint ^ "?spans=none" in
        (* first request computes and fills the store; the repeats are
           pure store hits — the daemon's steady state for a tenant
           re-asking an unchanged question *)
        let cold = timed_request body path in
        let warm =
          Array.init reps (fun _ -> timed_request body path)
        in
        Array.sort compare warm;
        let p50 = percentile warm 0.50 and p99 = percentile warm 0.99 in
        let total = Array.fold_left ( +. ) 0.0 warm in
        let rps = float_of_int reps /. total in
        rows :=
          [ endpoint;
            Printf.sprintf "%.1f" (cold *. 1e3);
            Printf.sprintf "%.2f" (p50 *. 1e3);
            Printf.sprintf "%.2f" (p99 *. 1e3);
            Printf.sprintf "%.0f" rps ]
          :: !rows;
        ( endpoint,
          Json.Obj
            [ ("cold_ms", Json.float (cold *. 1e3));
              ("warm_p50_ms", Json.float (p50 *. 1e3));
              ("warm_p99_ms", Json.float (p99 *. 1e3));
              ("warm_requests_per_s", Json.float rps);
              ("reps", Json.Int reps) ] ))
      [ "analyze"; "blame"; "hotlines"; "repair" ]
  in
  Fs_serve.Server.stop t;
  print_string
    (Fs_util.Table.render
       ~header:[ "endpoint"; "cold ms"; "warm p50 ms"; "warm p99 ms"; "warm req/s" ]
       (List.rev !rows));
  record "serve" ~seconds:(Unix.gettimeofday () -. t0) (Json.Obj payloads)

(* ------------------------------------------------------------------ *)
(* Regression gate: compare this run against the committed baseline    *)

(* sections whose payloads are wall-clock measurements, not
   deterministic experiment data *)
let nondeterministic =
  [ "micro"; "replay"; "tracking_overhead"; "simspeed"; "telemetry-overhead";
    "serve"; "tracescale"; "pipeline-ratio"; "interp-ratio"; "codec-ratio" ]

let baseline_path () =
  if Sys.file_exists "bench/BASELINE.json" then "bench/BASELINE.json"
  else "BASELINE.json"

let read_json path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let write_baseline () =
  let path = "bench/BASELINE.json" in
  let j =
    Json.Obj
      [ ("harness", Json.String "falseshare bench");
        ("sections",
         Json.Obj
           (List.rev !results
            |> List.filter (fun (name, _) ->
                   not (List.mem name nondeterministic)))) ]
  in
  let oc = open_out path in
  Json.to_channel ~compact:false oc j;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nseeded %s\n" path

let check_against_baseline ~tolerance ~gates =
  let path = baseline_path () in
  if not (Sys.file_exists path) then begin
    Printf.printf
      "\nno baseline at %s — run `bench baseline` and commit it\n" path;
    exit 1
  end;
  let obj = function Json.Obj kv -> kv | _ -> [] in
  let base_sections =
    match Json.member "sections" (read_json path) with
    | Some s -> obj s
    | None -> []
  in
  let current = List.rev !results in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun g ->
      if g.ratio < g.floor then
        fail "%s: %s at %.2fx the fused engine's events/s (floor %.2fx)" g.name
          g.what g.ratio g.floor)
    gates;
  List.iter
    (fun (name, bj) ->
      if not (List.mem name nondeterministic) then
        match List.assoc_opt name current with
        | None -> fail "%s: in the baseline but not produced by this run" name
        | Some cj -> (
          (match (Json.member "data" bj, Json.member "data" cj) with
           | Some b, Some c ->
             (* the pipeline is deterministic, so the payloads must agree
                bit for bit; floats survive the round-trip exactly *)
             if Json.to_string b <> Json.to_string c then
               fail "%s: data drifted from the baseline" name
           | _ -> fail "%s: malformed section record" name);
          match
            ( Option.bind (Json.member "seconds" bj) Json.get_float,
              Option.bind (Json.member "seconds" cj) Json.get_float )
          with
          | Some b, Some c when c > (b +. 0.1) *. tolerance ->
            (* +0.1s so near-instant baseline sections don't trip on noise *)
            fail "%s: took %.2fs, baseline %.2fs (tolerance %gx)" name c b
              tolerance
          | _ -> ()))
    base_sections;
  List.iter
    (fun (name, _) ->
      if
        (not (List.mem name nondeterministic))
        && not (List.mem_assoc name base_sections)
      then
        fail "%s: produced by this run but missing from the baseline" name)
    current;
  match !failures with
  | [] ->
    Printf.printf "\nbench check: ok — %d section(s) match %s\n"
      (List.length base_sections) path
  | fs ->
    Printf.printf "\nbench check: %d FAILURE(S) against %s\n" (List.length fs)
      path;
    List.iter (fun f -> Printf.printf "  %s\n" f) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the pipeline components                *)

let micro ~quick () =
  section "Component micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let pverify = Ws.find "pverify" in
  let prog = pverify.W.build ~nprocs:8 ~scale:1 in
  let layout = Layout.default prog ~block:128 in
  let bench_analysis =
    Test.make ~name:"analyze+plan (pverify, P=8)"
      (Staged.stage (fun () -> ignore (T.plan prog ~nprocs:8)))
  in
  let bench_layout =
    let plan = (T.plan prog ~nprocs:8).T.plan in
    Test.make ~name:"layout realize (pverify)"
      (Staged.stage (fun () -> ignore (Layout.realize prog plan ~block:128)))
  in
  let bench_interp =
    Test.make ~name:"interpret (pverify, P=8)"
      (Staged.stage (fun () ->
           ignore
             (Interp.run_to_sink prog ~nprocs:8 ~layout ~sink:Fs_trace.Sink.null)))
  in
  let bench_cache =
    (* a synthetic ping-pong trace through the protocol simulator *)
    Test.make ~name:"cache sim (100k refs)"
      (Staged.stage (fun () ->
           let t = C.create (C.default_config ~nprocs:8 ~block:64) in
           for k = 0 to 99_999 do
             ignore
               (C.access t ~proc:(k mod 8) ~write:(k land 1 = 0)
                  ~addr:(4 * (k mod 512)))
           done))
  in
  let bench_full =
    Test.make ~name:"full pipeline (pverify cache sim)"
      (Staged.stage (fun () ->
           ignore (Sim.cache_sim prog Plan.empty ~nprocs:8 ~block:128)))
  in
  let tests =
    Test.make_grouped ~name:"falseshare"
      [ bench_analysis; bench_layout; bench_interp; bench_cache; bench_full ]
  in
  let limit, quota = if quick then (50, 0.1) else (200, 0.5) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Some (t /. 1e6)
          | _ -> None
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (name, est) ->
        [ name;
          (match est with
           | Some ms -> Printf.sprintf "%.3f ms" ms
           | None -> "n/a") ])
      estimates
  in
  print_string (Fs_util.Table.render ~header:[ "component"; "time/run" ] rows);
  record "micro" ~seconds:0.
    (Json.List
       (List.map
          (fun (name, est) ->
            Json.Obj
              [ ("component", Json.String name);
                ("ms_per_run",
                 match est with Some ms -> Json.float ms | None -> Json.Null) ])
          estimates))

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Unix.gettimeofday () in
  let jobs = ref (Fs_util.Par.default_jobs ()) in
  let tolerance = ref 10.0 in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      jobs := int_of_string (String.sub a 7 (String.length a - 7));
      parse rest
    | "--tolerance" :: f :: rest ->
      tolerance := float_of_string f;
      parse rest
    | a :: rest when String.length a > 12 && String.sub a 0 12 = "--tolerance=" ->
      tolerance := float_of_string (String.sub a 12 (String.length a - 12));
      parse rest
    | a :: rest ->
      positional := a :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let positional = List.rev !positional in
  let jobs = !jobs in
  let pick = match positional with p :: _ -> p | [] -> "all" in
  (* baseline/check run the quick pass of every deterministic section *)
  let gate = pick = "baseline" || pick = "check" in
  let quick = List.mem "quick" positional || gate in
  let procs = if quick then Some [ 1; 2; 4; 8; 12; 16; 24; 32 ] else None in
  let all = pick = "all" || pick = "quick" in
  if all || gate || pick = "fig3" then fig3 ~jobs ();
  if all || gate || pick = "table2" then table2 ~jobs ();
  if all || gate || pick = "stats" then stats ~jobs ();
  if all || gate || pick = "fig4" then fig4 ~procs ~jobs ();
  if all || gate || pick = "table3" then table3 ~procs ~jobs ();
  if all || gate || pick = "exectime" then exectime ~procs ~jobs ();
  if all || pick = "replay" then replay_bench ~jobs ();
  if all || gate || pick = "simspeed" then simspeed ();
  if all || gate || pick = "engine" then engine_bench ();
  if all || gate || pick = "tracefmt" then tracefmt ();
  if all || pick = "tracescale" then tracefmt_scale ();
  if all || gate || pick = "telemetry" then telemetry_bench ();
  if all || gate || pick = "ablation" then ablation ();
  if all || gate || pick = "repair" then repair_bench ~jobs ();
  if all || gate || pick = "stealing" then stealing_bench ~jobs ();
  if all || gate || pick = "phases" then phases_bench ();
  if all || gate || pick = "serve" then serve_bench ~quick ~jobs ();
  if all || pick = "micro" then micro ~quick ();
  let gates =
    if all || pick = "check" || pick = "ratio" then
      let pipeline = pipeline_ratio () in
      let interp = interp_ratio () in
      [ pipeline; interp; codec_ratio () ]
    else []
  in
  write_results ~quick ~jobs ~seconds:(Unix.gettimeofday () -. t0);
  if pick = "baseline" then write_baseline ();
  if pick = "check" then check_against_baseline ~tolerance:!tolerance ~gates
