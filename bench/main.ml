(* The benchmark harness: the paper's evaluation (Section 5) as text
   tables, the deterministic baseline gate, and the ratio gates.

     bench/main.exe [SECTION...] [--jobs N]

   With no section it runs every table, then the ratio gates.  Sections:
   fig3, table2, fig4, table3, stats, exectime (the paper's figures and
   tables), engine, tracefmt, ablation, repair, stealing, phases (exact
   records of the repo's own).  `quick` shrinks the processor sweep;
   `ratio` runs only the ratio gates, each a layer's events/s as a
   fraction of an untracked fused replay's in the same run; `baseline`
   runs every section at the quick sweep and seeds bench/BASELINE.json
   with their data; `check` runs the same plus the ratio gates and exits
   1 if any data differs from the baseline by one bit or a ratio falls
   below its floor.  `--jobs N` sets the worker domains (default: the
   FALSESHARE_JOBS environment variable, else the recommended count).
   An unknown name or malformed option is a usage error that runs
   nothing.  Every run writes BENCH_results.json atomically: each
   section's data and wall seconds, and each ratio gate's reading. *)

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

(* The listener path: every recorded event unpacked and translated
   through the layout's address tables into [sink], with none of the
   replay engine's packed decode — the reference the engine section
   holds the engine to.  An indirection's pointer load comes before the
   data access; only accesses reach a sink. *)
let listener_replay trace ~layout ~sink =
  let lookup name = Layout.lookup layout name in
  let vls = Array.map lookup (Ct.vars trace) in
  Ct.iter
    (function
      | Fs_trace.Cell_event.Access { proc; write; var; cell } ->
        let vl = vls.(var) in
        if Array.length vl.Layout.extra > 0 && vl.Layout.extra.(cell) >= 0 then
          sink ~proc ~write:false ~addr:vl.Layout.extra.(cell);
        sink ~proc ~write ~addr:vl.Layout.addr.(cell)
      | _ -> ())
    trace

(* accumulated for BENCH_results.json, in run order: the sections the
   baseline gates, and the ratio gates' readings *)
let results : (string * Json.t) list ref = ref []
let ratios : (string * Json.t) list ref = ref []

let record name ~seconds payload =
  results :=
    (name, Json.Obj [ ("seconds", Json.float seconds); ("data", payload) ])
    :: !results

(* written through a temp file and a rename, so a concurrent reader (or
   an interrupted run) never sees a partial file *)
let write_json path j =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Json.to_channel ~compact:false oc j;
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let write_results ~quick ~jobs ~seconds =
  write_json "BENCH_results.json"
    (Json.Obj
       [ ("harness", Json.String "falseshare bench");
         ("quick", Json.Bool quick);
         ("jobs", Json.Int jobs);
         ("total_seconds", Json.float seconds);
         ("sections", Json.Obj (List.rev !results));
         ("ratios", Json.Obj (List.rev !ratios)) ]);
  Printf.printf "\nwrote BENCH_results.json (%d sections)\n" (List.length !results)

(* ------------------------------------------------------------------ *)
(* Paper reproductions                                                 *)

(* one section: compute it, print its table, then the paper's figures
   it reproduces, and record its data under [name].  Every section takes
   [~procs] (the quick pass's processor sweep, or [None] for the
   paper's) and [~jobs]. *)
let table name title ?(paper = "") compute render emit =
  section title;
  let r, dt = time_it compute in
  print_string (render r);
  record name ~seconds:dt (emit r);
  print_string paper;
  Printf.printf "(%.1fs)\n" dt

let fig3 ~procs:_ ~jobs =
  table "fig3"
    "Figure 3 - miss rates, unoptimized vs compiler-transformed (16B and \
     128B blocks; paper: white bar = false sharing)"
    (fun () -> E.figure3 ~jobs ()) E.render_figure3 Emit.fig3

let table2 ~procs:_ ~jobs =
  table "table2"
    "Table 2 - false-sharing reduction by transformation (averaged over \
     8-256B blocks)"
    ~paper:
      "\npaper:    maxflow 56.5% (pad 49.2, locks 7.3) | pverify 91.2% (g&t 6.4, \
       ind 81.6, locks 3.1)\n\
      \          topopt 79.9% (g&t 61.3, ind 18.6) | fmm 90.8% (g&t 84.8, locks 6.0)\n\
      \          radiosity 93.5% (g&t 85.6, pad 1.0, locks 6.8) | raytrace 78.3% \
       (g&t 70.4, pad 3.3, locks 4.6)\n"
    (fun () -> E.table2 ~jobs ()) E.render_table2 Emit.table2

let fig4 ~procs ~jobs =
  table "fig4"
    "Figure 4 - scalability of the three representative programs (speedup \
     vs processors, relative to unoptimized uniprocessor)"
    ~paper:
      "paper maxima: raytrace 7.0/9.6/9.2 | fmm 16.4/33.6/16.4 | pverify \
       2.5/5.9/3.5\n"
    (fun () -> E.figure4 ?procs ~jobs ()) E.render_series Emit.series

let table3 ~procs ~jobs =
  table "table3" "Table 3 - maximum speedup (and processor count) per version"
    ~paper:
      "\npaper:    maxflow 1.4(8)/4.3(16) | pverify 2.5(16)/5.9(16)/3.5(8) | \
       topopt 9.2(44)/10.3(28)/10.2(28)\n\
      \          fmm 16.4(20)/33.6(48+)/16.4(20) | radiosity 7.0(8)/19.2(28)/7.4(8) | \
       raytrace 7.0(8)/9.6(12)/9.2(12)\n\
      \          locusroute -/12.3(20)/12.0(20) | mp3d -/2.9(28)/1.3(4) | \
       pthor -/2.8(4)/2.2(4) | water -/9.9(40)/4.6(12)\n"
    (fun () -> E.table3 ~series:(E.speedups ?procs ~jobs ()) ())
    E.render_table3 Emit.table3

let stats ~procs:_ ~jobs =
  table "stats" "Headline statistics (abstract / Section 1)"
    (fun () -> E.text_stats ~jobs ()) E.render_stats Emit.stats

let exectime ~procs ~jobs =
  table "exectime"
    "Execution-time improvements while the unoptimized version still scales \
     (Section 5; paper: fmm 3%, radiosity 6%, raytrace 2%, maxflow 50%, \
     pverify 58%, topopt 20%)"
    (fun () -> E.exec_time_improvements ?procs ~jobs ())
    E.render_exec Emit.exec

(* ------------------------------------------------------------------ *)
(* The on-disk trace format: file size and the streamed replay path.
   File sizes and replay counts are pure functions of the workload (the
   interpreter's schedule and the encoding are both deterministic), so
   `tracefmt` sits inside the baseline gate.                           *)

let tracefmt ~procs:_ ~jobs:_ =
  let module R = Fs_replay.Replay in
  let sizes () =
    List.map
      (fun (w : W.t) ->
        let nprocs = w.fig3_procs in
        let prog = w.build ~nprocs ~scale:w.default_scale in
        let trace = (Sim.record prog ~nprocs).Sim.trace in
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
        let events = Ct.length trace in
        (w.name, events, bytes, float_of_int bytes /. float_of_int (max 1 events)))
      Ws.all
  in
  table "tracefmt"
    "Trace format - on-disk bytes, streamed counts identical (every \
     workload, default scale, 128B)"
    sizes
    (fun rows ->
      Fs_util.Table.render
        ~header:[ "program"; "events"; "bytes"; "B/event"; "identical" ]
        (List.map
           (fun (name, events, bytes, bpe) ->
             [ name; string_of_int events; string_of_int bytes;
               Printf.sprintf "%.2f" bpe; "yes" ])
           rows))
    (fun rows ->
      Json.List
        (List.map
           (fun (name, events, bytes, bpe) ->
             Json.Obj
               [ ("workload", Json.String name);
                 ("events", Json.Int events);
                 ("v2_bytes", Json.Int bytes);
                 ("v2_bytes_per_event", Json.float bpe);
                 ("streamed_counts_identical", Json.Bool true) ])
           rows))

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

(* What every gate times: pverify at its Figure 3 processor count and
   four times its default scale (~1.5M events), recorded once, with the
   compiler plan's layout at 128-byte blocks. *)
type ratio_input = {
  prog : Fs_ir.Ast.program;
  nprocs : int;
  recorded : Sim.recorded;
  events : int;
  plan : Plan.t;
  layout : Layout.t;
}

let ratio_input =
  lazy
    (let w = Ws.find "pverify" in
     let nprocs = w.W.fig3_procs in
     let prog = w.W.build ~nprocs ~scale:(4 * w.W.default_scale) in
     let recorded = Sim.record prog ~nprocs in
     let plan = (T.plan prog ~nprocs).T.plan in
     { prog; nprocs; recorded; events = Ct.length recorded.Sim.trace; plan;
       layout = Layout.realize prog plan ~block:128 })

(* a fused replay's seconds, untracked unless [track_blocks] *)
let replay_seconds ?(track_blocks = false) i layout () =
  let cache =
    C.create ~track_blocks ~max_addr:(Layout.size layout)
      (C.default_config ~nprocs:i.nprocs ~block:(Layout.block layout))
  in
  snd
    (time_it (fun () ->
         Fs_replay.Replay.simulate i.recorded.Sim.trace ~layout ~cache))

(* time [layer] against an untracked fused replay under [layout]
   (default: the input's), print, record the reading under [name]
   (seconds are per-side medians) and return the gate *)
let gate ?layout i ~name ~what ~floor ~layer_key layer =
  let layout = Option.value layout ~default:i.layout in
  let ratio, layer, fused =
    paired_ratio ~layer ~fused:(replay_seconds i layout)
  in
  let meps t = float_of_int i.events /. t /. 1e6 in
  Printf.printf
    "%d events | %s %.1f Mevents/s | fused %.1f Mevents/s | ratio %.2f \
     (median of %d paired trials; floor %.2f)\n"
    i.events what (meps layer) (meps fused) ratio ratio_trials floor;
  ratios :=
    ( name,
      Json.Obj
        [ ("events", Json.Int i.events);
          (layer_key, Json.float layer);
          ("fused_seconds", Json.float fused);
          ("ratio", Json.float ratio);
          ("trials", Json.Int ratio_trials);
          ("floor", Json.float floor) ] )
    :: !ratios;
  { name; what; ratio; floor }

(* [Pipeline.run]'s tracked replay plus its interp_* counting pass must
   keep within this fraction of an untracked fused replay's events/s.  A
   per-event listener on the pipeline's walk runs at ~0.04; the engine
   route at ~0.7. *)
let pipeline_ratio_floor = 0.4

let pipeline_ratio () =
  section "Pipeline replay vs fused engine (pverify, compiler plan, 128B)";
  let i = Lazy.force ratio_input in
  (* the pipeline's own replay+cache span: its walk over the same
     recording (recording is deterministic) and its counting pass *)
  let pipeline () =
    let module Span = Fs_obs.Span in
    let recorder = Span.create () in
    Span.set_current (Some recorder);
    Fun.protect
      ~finally:(fun () -> Span.set_current None)
      (fun () ->
        ignore (Falseshare.Pipeline.run i.prog ~nprocs:i.nprocs ~block:128));
    let sp =
      List.find
        (fun (sp : Span.span) -> sp.name = "replay+cache")
        (Span.spans recorder)
    in
    assert (List.assoc "events" sp.attrs = string_of_int i.events);
    Span.duration recorder sp
  in
  gate i ~name:"pipeline-ratio" ~what:"pipeline replay+cache"
    ~floor:pipeline_ratio_floor ~layer_key:"pipeline_seconds" pipeline

(* [Interp.record]'s events/s must keep within this fraction of an
   untracked fused replay of the trace it records.  On a 2-core x86-64
   container, 10 readings gave 0.178-0.187 (9.1-10.8 Mevents/s) with
   literal divisors as a multiply, packed events pushed straight into
   the trace and its chunks read in place; the interpreter before that
   read 0.137-0.141 (7.8-8.7 Mevents/s) in 10, and the boxed one before
   it 0.07-0.08 in 5. *)
let interp_ratio_floor = 0.15

let interp_ratio () =
  section "Interpreter recording vs fused engine (pverify, packed layout, 128B)";
  let i = Lazy.force ratio_input in
  let recording () =
    let (t, _), dt =
      time_it (fun () -> Interp.record i.prog ~nprocs:i.nprocs)
    in
    assert (Ct.length t = i.events);
    dt
  in
  gate i ~layout:(Layout.realize i.prog [] ~block:128) ~name:"interp-ratio"
    ~what:"Interp.record" ~floor:interp_ratio_floor ~layer_key:"record_seconds"
    recording

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
  let i = Lazy.force ratio_input in
  let trace = i.recorded.Sim.trace and layout = i.layout in
  let cache () =
    C.create ~max_addr:(Layout.size layout)
      (C.default_config ~nprocs:i.nprocs ~block:128)
  in
  let reference = (R.simulate trace ~layout ~cache:(cache ())).R.counts in
  let codec () =
    (* a fresh name each trial: renaming over an existing file can make
       the filesystem flush it, timing the disk instead of the codec *)
    let path = tmp_trace "codec" in
    Sys.remove path;
    let cache = cache () in
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
  gate i ~name:"codec-ratio" ~what:"write_file + simulate_stream"
    ~floor:codec_ratio_floor ~layer_key:"codec_seconds" codec

(* The KSR2 model ([Sim.machine_sim ~recorded], on the engine's machine
   body) must keep within this fraction of an untracked fused replay's
   events/s, at the model's 128-byte block.  On a 2-core x86-64
   container, 10 runs of each side: 0.80-0.86 on the machine body,
   0.38-0.42 with the model on the listener path it replaced. *)
let machine_ratio_floor = 0.6

let machine_ratio () =
  section "KSR2 model vs fused engine (pverify, compiler plan, 128B)";
  let i = Lazy.force ratio_input in
  assert ((Fs_machine.Ksr.default_config ~nprocs:i.nprocs).Fs_machine.Ksr.block = 128);
  let machine () =
    snd
      (time_it (fun () ->
           Sim.machine_sim ~recorded:i.recorded i.prog i.plan ~nprocs:i.nprocs))
  in
  gate i ~name:"machine-ratio" ~what:"Sim.machine_sim"
    ~floor:machine_ratio_floor ~layer_key:"machine_seconds" machine

(* A fused replay on a [~track_blocks:true] cache — the per-block
   counts Blame, Hotlines and Attribution build on — must keep within
   this fraction of the untracked replay's events/s.  On a 2-core
   x86-64 container, 10 readings: 0.86-1.00; with the hash-table pair
   and line trackers on as well, 0.21-0.24 in 3. *)
let tracked_ratio_floor = 0.7

let tracked_ratio () =
  section "Tracked vs untracked fused engine (pverify, compiler plan, 128B)";
  let i = Lazy.force ratio_input in
  gate i ~name:"tracked-ratio" ~what:"tracked Replay.simulate"
    ~floor:tracked_ratio_floor ~layer_key:"tracked_seconds"
    (replay_seconds ~track_blocks:true i i.layout)

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)

let ablation ~procs:_ ~jobs:_ =
  let variants =
    [ ("full", T.default_options);
      ("no_lock_pad", { T.default_options with pad_locks = false });
      ("no_profiling", { T.default_options with profile = false });
      ("rsd_limit_1", { T.default_options with rsd_limit = 1 }) ]
  in
  let residual_fs () =
    List.map
      (fun (w : W.t) ->
        let nprocs = w.fig3_procs in
        let prog = w.build ~nprocs ~scale:w.default_scale in
        let recorded = Sim.record prog ~nprocs in
        ( w.name,
          List.map
            (fun (_, options) ->
              let plan = (T.plan ~options prog ~nprocs).T.plan in
              (Sim.cache_sim ~recorded prog plan ~nprocs ~block:128)
                .Sim.counts.C.false_sh)
            variants ))
      (Ws.simulated ())
  in
  table "ablation"
    "Ablations - lock padding, static profiling, RSD merge limit (residual \
     false-sharing misses at 128B under each compiler variant)"
    residual_fs
    (fun rows ->
      Fs_util.Table.render
        ~header:[ "program"; "full"; "no lock pad"; "no profiling"; "rsd limit 1" ]
        (List.map (fun (name, fs) -> name :: List.map string_of_int fs) rows))
    (fun rows ->
      Json.List
        (List.map
           (fun (name, fs) ->
             Json.Obj
               (("program", Json.String name)
               :: List.map2 (fun (key, _) n -> (key, Json.Int n)) variants fs))
           rows))

(* ------------------------------------------------------------------ *)
(* Feedback repair: the profile-guided refinement loop                 *)

let repair ~procs:_ ~jobs =
  let module RE = Fs_feedback.Repair_experiments in
  table "repair"
    "Feedback repair - N/C/P/F comparison (compiler and programmer plans \
     refined to fixpoint; 16B and 128B blocks)"
    (fun () -> RE.table ~jobs ()) RE.render RE.to_json

(* ------------------------------------------------------------------ *)
(* Work stealing: the dynamic family the static planner cannot see     *)

let stealing ~procs:_ ~jobs =
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
  write_json "stealing_ncpf.json" json;
  Printf.printf "(%.1fs; wrote stealing_ncpf.json)\n" dt

(* ------------------------------------------------------------------ *)
(* Phase-resolved sharing: per-epoch profiles                          *)

let phases ~procs:_ ~jobs:_ =
  table "phases"
    "Per-epoch sharing profile (pverify and topopt, unoptimized, 128B)"
    (fun () ->
      List.map
        (fun name ->
          let w = Ws.find name in
          let nprocs = w.W.fig3_procs in
          let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
          let recorded = Sim.record prog ~nprocs in
          (name,
           Falseshare.Phases.analyze ~recorded prog Plan.empty ~nprocs
             ~block:128))
        [ "pverify"; "topopt" ])
    (fun ps ->
      String.concat ""
        (List.map
           (fun (name, p) ->
             Printf.sprintf "--- %s ---\n%s\n" name (Falseshare.Phases.render p))
           ps))
    (fun ps -> Json.Obj (List.map (fun (name, p) -> (name, Emit.phases p)) ps))

(* ------------------------------------------------------------------ *)
(* The replay engine: deterministic bit-identity + epoch reconciliation.
   Everything here is exact experiment data, so the baseline gate
   compares it bit for bit.                                            *)

let engine ~procs:_ ~jobs:_ =
  let module R = Fs_replay.Replay in
  let points () =
    List.concat_map
      (fun name ->
        let w = Ws.find name in
        let nprocs = w.W.fig3_procs in
        let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
        let trace = (Sim.record prog ~nprocs).Sim.trace in
        (* the same trace from disk: every point below also replays the
           v2 file through the streamed engine and must land on the same
           counts, so the bit-identity evidence covers the on-disk path
           and reports the bytes it read *)
        let v2_path = tmp_trace ("engine-" ^ name) in
        Ct.write_file trace v2_path;
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
                listener_replay trace ~layout ~sink:(C.touch c);
                C.counts c
              in
              let s = R.simulate trace ~layout ~cache:(cache ()) in
              let esum = C.zero_counts () in
              Array.iter (Array.iter (C.add_into esum)) s.R.epochs;
              let streamed = R.simulate_stream stream ~layout ~cache:(cache ()) in
              (* load-bearing: a drifted engine must fail the bench run
                 itself, not just the baseline diff *)
              assert (s.R.counts = reference);
              assert (esum = s.R.counts);
              assert (streamed.R.counts = reference);
              (name, block, trace_bytes, s))
            [ 16; 128 ]
        in
        Ct.Stream.close stream;
        Sys.remove v2_path;
        out)
      [ "pverify"; "topopt" ]
  in
  table "engine"
    "Replay engine - bit-identity vs the listener path, in memory and \
     streamed (pverify and topopt, unoptimized, 16B and 128B)"
    points
    (fun points ->
      Fs_util.Table.render
        ~header:[ "program"; "block"; "misses"; "false sh"; "epochs"; "identical" ]
        (List.map
           (fun (name, block, _, s) ->
             [ name; string_of_int block; string_of_int (C.misses s.R.counts);
               string_of_int s.R.counts.C.false_sh;
               string_of_int (Array.length s.R.epochs); "yes" ])
           points))
    (fun points ->
      Json.List
        (List.map
           (fun (name, block, trace_bytes, s) ->
             Json.Obj
               [ ("workload", Json.String name);
                 ("block", Json.Int block);
                 ("identical", Json.Bool true);
                 ("epochs", Json.Int (Array.length s.R.epochs));
                 ("epochs_sum_ok", Json.Bool true);
                 ("stream_identical", Json.Bool true);
                 ("trace_bytes", Json.Int trace_bytes);
                 ("counts", Emit.counts s.R.counts) ])
           points))

(* ------------------------------------------------------------------ *)
(* Regression gate: compare this run against the committed baseline    *)

let baseline_path () =
  if Sys.file_exists "bench/BASELINE.json" then "bench/BASELINE.json"
  else "BASELINE.json"

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* the baseline keeps each section's data, not its wall seconds *)
let write_baseline () =
  let path = "bench/BASELINE.json" in
  let data (name, r) =
    (name, Json.Obj [ ("data", Option.get (Json.member "data" r)) ])
  in
  write_json path
    (Json.Obj
       [ ("harness", Json.String "falseshare bench");
         ("sections", Json.Obj (List.rev_map data !results)) ]);
  Printf.printf "\nseeded %s\n" path

let check_against_baseline gates =
  let path = baseline_path () in
  if not (Sys.file_exists path) then begin
    Printf.printf
      "\nno baseline at %s — run `bench baseline` and commit it\n" path;
    exit 1
  end;
  let base_sections =
    match Json.member "sections" (read_json path) with
    | Some (Json.Obj kv) -> kv
    | _ -> []
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
      match List.assoc_opt name current with
      | None -> fail "%s: in the baseline but not produced by this run" name
      | Some cj -> (
        match (Json.member "data" bj, Json.member "data" cj) with
        | Some b, Some c ->
          (* the pipeline is deterministic, so the payloads must agree
             bit for bit; floats survive the round-trip exactly *)
          if Json.to_string b <> Json.to_string c then
            fail "%s: data drifted from the baseline" name
        | _ -> fail "%s: malformed section record" name))
    base_sections;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base_sections) then
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
(* Command line                                                        *)

(* the baseline-gated sections, in run (and baseline) order *)
let sections =
  [ ("fig3", fig3); ("table2", table2); ("stats", stats); ("fig4", fig4);
    ("table3", table3); ("exectime", exectime); ("engine", engine);
    ("tracefmt", tracefmt); ("ablation", ablation); ("repair", repair);
    ("stealing", stealing); ("phases", phases) ]

let gates =
  [ pipeline_ratio; interp_ratio; codec_ratio; machine_ratio; tracked_ratio ]

let run names jobs =
  let t0 = Unix.gettimeofday () in
  let has n = List.mem n names in
  let gate = has "baseline" || has "check" in
  let quick = has "quick" || gate in
  (* no section named: every section, then the ratio gates *)
  let everything = has "all" || List.for_all (String.equal "quick") names in
  let procs = if quick then Some [ 1; 2; 4; 8; 12; 16; 24; 32 ] else None in
  List.iter
    (fun (name, section) -> if everything || gate || has name then section ~procs ~jobs)
    sections;
  let gates =
    if everything || has "check" || has "ratio" then List.map (fun g -> g ()) gates
    else []
  in
  write_results ~quick ~jobs ~seconds:(Unix.gettimeofday () -. t0);
  if has "baseline" then write_baseline ();
  if has "check" then check_against_baseline gates

let () =
  let open Cmdliner in
  let names =
    List.map fst sections @ [ "all"; "quick"; "ratio"; "baseline"; "check" ]
  in
  let names_arg =
    Arg.(value
         & pos_all (enum (List.map (fun n -> (n, n)) names)) []
         & info [] ~docv:"SECTION"
             ~doc:("What to run: " ^ String.concat ", " names ^ "."))
  in
  let jobs_arg =
    Arg.(value & opt int (Fs_util.Par.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for independent runs (default: the \
                   $(b,FALSESHARE_JOBS) environment variable, else the \
                   recommended domain count).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench"
         ~doc:"Regenerate the paper's tables and gate them against \
               bench/BASELINE.json.")
      Term.(const run $ names_arg $ jobs_arg)
  in
  exit (Cmd.eval cmd)
