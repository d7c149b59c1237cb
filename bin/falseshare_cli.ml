(* Command-line front end.

   falseshare list                      -- the benchmark suite (Table 1)
   falseshare report  <workload>        -- compiler analysis + phase profile
   falseshare source  <workload>        -- ParC source of a benchmark
   falseshare sim     <workload> [...]  -- cache simulation, N vs C vs P
   falseshare speedup <workload> [...]  -- KSR2 scalability curves
   falseshare blame   <workload> [...]  -- invalidation blame matrix
   falseshare phases  <workload> [...]  -- per-epoch sharing profile
   falseshare hotlines <workload> [...] -- hot-line lifetimes + fixes
   falseshare timeline <workload> [...] -- Chrome-trace timeline export
   falseshare profile <workload> [...]  -- span tree + pool + flight digest
   falseshare serve [...]               -- the multi-tenant analysis daemon
   falseshare fig3 | table2 | fig4 | table3 | stats | exectime
                                        -- reproduce the paper's evaluation

   Every subcommand takes --json to emit machine-readable output, and
   --metrics-out/--spans-out to export the run's telemetry. *)

open Cmdliner
module E = Falseshare.Experiments
module R = Falseshare.Request
module Sim = Falseshare.Sim
module Pipeline = Falseshare.Pipeline
module Emit = Falseshare.Emit
module T = Fs_transform.Transform
module C = Fs_cache.Mpcache
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Json = Fs_obs.Json

let wconv =
  Arg.conv
    ( (fun s ->
        match R.workload s with
        | w -> Ok w
        | exception R.Refused m -> Error (`Msg m)),
      fun fmt w -> Format.pp_print_string fmt w.W.name )

let workload_arg =
  Arg.(required & pos 0 (some wconv) None & info [] ~docv:"WORKLOAD")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

let jobs_arg =
  Arg.(value
       & opt int (Fs_util.Par.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for independent runs, such as one replay \
                 per version or layout (default: the \
                 $(b,FALSESHARE_JOBS) environment variable, else the \
                 recommended domain count).")

let sched_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "sched-seed" ] ~docv:"SEED"
           ~doc:"Seed for the deterministic work-stealing scheduler.  \
                 Required by the dynamic (spawn/sync) workloads; the same \
                 seed reproduces the same execution bit for bit.  Ignored \
                 by the static suite.")

(* The query flags of a workload [command], as one [Request.query]: a
   flag the command does not take stays [None], and [Request.resolve]
   fills every default, which the help shows.  [top] documents what
   [--top] counts. *)
let query_term ~command ?(nprocs = true) ?(block = true) ?(seed = true)
    ?(layout = false) ?top ?(max_iters = false) () =
  let take on arg = if on then arg else Term.const None in
  let int names docv absent doc =
    Arg.(value & opt (some int) None & info names ~docv ~absent ~doc)
  in
  let layout_arg =
    Arg.(value
         & opt (some (enum R.layouts)) None
         & info [ "layout" ] ~docv:"V"
             ~absent:(R.layout_name (R.default_layout command))
             ~doc:"Which layout: $(b,unoptimized), $(b,compiler), or \
                   $(b,programmer).")
  in
  let make nprocs scale block layout top max_iters seed =
    { R.nprocs; scale; block; layout; seed; top; max_iters }
  in
  Term.(const make
        $ take nprocs
            (int [ "p"; "procs" ] "P" (string_of_int R.default_nprocs) "Processor count.")
        $ int [ "s"; "scale" ] "N" "the workload's default" "Problem scale."
        $ take block
            (int [ "b"; "block" ] "BYTES" (string_of_int R.default_block)
               "Cache block size.")
        $ take layout layout_arg
        $ take (top <> None)
            (int [ "top" ] "K" (string_of_int (R.default_top command))
               (Option.value top ~default:""))
        $ take max_iters
            (int [ "max-iters" ] "N" (string_of_int R.default_max_iters)
               "Cap on accepted repair iterations.")
        $ take seed sched_seed_arg)

(* For commands whose experiment drivers are defined over the static
   suite only (speedup sweeps, the paper reproductions). *)
let reject_dynamic ~cmd (w : W.t) =
  if w.W.dynamic then
    R.refuse
      "%s only covers the static suite; %s is a dynamic workload (run \
       `falseshare repair --stealing` for the dynamic N/C/F comparison)."
      cmd w.W.name

let print_json j = Json.to_channel ~compact:false stdout j

(* a table row's accesses, misses, false sharing and miss rate *)
let count_cells (c : C.counts) =
  [ string_of_int (C.accesses c); string_of_int (C.misses c);
    string_of_int c.C.false_sh; Fs_util.Table.pct (C.miss_rate c) ]

(* a result as JSON or as its text rendering *)
let output json to_json render v =
  if json then print_json (to_json v) else print_string (render v)

(* --- telemetry plumbing ------------------------------------------- *)

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write this run's metrics in Prometheus text exposition \
                 format to $(docv) on exit (\"-\" for stdout).  Includes \
                 domain-pool fan-out instrumentation and per-command \
                 timings.")

let spans_out_arg =
  Arg.(value & opt (some string) None
       & info [ "spans-out" ] ~docv:"FILE"
           ~doc:"Write this run's causal span tree as nested JSON to \
                 $(docv) on exit.")

(* Every subcommand runs inside one telemetry scope: the process-global
   metrics registry fed by the domain pool's observer, an ambient span
   recorder rooted at the subcommand name, and the optional exports —
   flushed on success, on an exception, and (via [at_exit]) on an early
   [exit], so a failed run still leaves its telemetry behind.  The scope
   also ends every refused or faulting run with one stderr line. *)
let with_telemetry ~cmd ~metrics_out ~spans_out f =
  let reg = Fs_obs.Metrics.global () in
  Fs_util.Par.set_observer (Some (Fs_obs.Pool.ingest reg));
  let recorder = Fs_obs.Span.create () in
  Fs_obs.Span.set_current (Some recorder);
  let seconds =
    Fs_obs.Metrics.histogram reg "cli_command_seconds"
      ~labels:[ ("command", cmd) ]
      ~help:"Wall-clock seconds per CLI subcommand"
  in
  let t0 = Unix.gettimeofday () in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Fs_obs.Metrics.Histogram.observe seconds (Unix.gettimeofday () -. t0);
      Fs_obs.Span.set_current None;
      Fs_util.Par.set_observer None;
      (match metrics_out with
       | None -> ()
       | Some "-" -> print_string (Fs_obs.Metrics.render reg)
       | Some path -> Fs_obs.Metrics.write_file reg path);
      match spans_out with
      | None -> ()
      | Some path -> Fs_obs.Span.write_file recorder path
    end
  in
  at_exit finish;
  match Fs_obs.Span.with_ recorder cmd f with
  | v -> finish (); v
  | exception e -> (
    finish ();
    (* a refused query is a usage error: one stderr line and exit 2; a
       fault of the program itself (an index out of bounds, a division
       by zero, a deadlock) fails the run: one stderr line and exit 1 *)
    let fail code m = Printf.eprintf "falseshare: %s\n" m; exit code in
    match (e, R.program_fault e) with
    | R.Refused m, _ -> fail 2 m
    | _, Some m -> fail 1 m
    | _, None -> raise e)

(* Wrap a subcommand term in the telemetry scope.  The inner term must
   evaluate to a thunk (each [run] takes a trailing [()]), so the
   subcommand body runs inside [with_telemetry] rather than during term
   evaluation. *)
let telemetrize cmd_name thunk_term =
  let wrap metrics_out spans_out thunk =
    with_telemetry ~cmd:cmd_name ~metrics_out ~spans_out thunk
  in
  Term.(const wrap $ metrics_out_arg $ spans_out_arg $ thunk_term)

(* --- list --- *)

let list_cmd =
  let run json () =
    if json then print_json (Emit.workloads Ws.every)
    else begin
      let header =
        [ "name"; "description"; "versions"; "scheduling"; "orig. LoC" ]
      in
      let rows =
        List.map
          (fun (w : W.t) ->
            [ w.name;
              w.description;
              String.concat "/"
                (List.map
                   (fun v ->
                     match v with W.N -> "N" | W.C -> "C" | W.P -> "P")
                   w.versions);
              (if w.dynamic then "dynamic" else "static");
              string_of_int w.lines_of_c ])
          Ws.every
      in
      print_string (Fs_util.Table.render ~header rows)
    end
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the benchmark suite: the static Table 1 programs plus the \
          dynamic (work-stealing) workload family.")
    (telemetrize "list" Term.(const run $ json_arg))

(* --- report --- *)

(* The phase table of [report] and [check --run], read off the ambient
   recorder [with_telemetry] installs: the command's own top-level
   stages (check's parse) and the stage spans of every [Pipeline.run],
   in start order, each with its wall time and [events] attribute. *)
let pipeline_phases () =
  match Fs_obs.Span.current () with
  | None -> []
  | Some recorder ->
    let spans = Fs_obs.Span.spans recorder in
    let pipelines =
      List.filter_map
        (fun (sp : Fs_obs.Span.span) ->
          if sp.name = "pipeline" then Some sp.id else None)
        spans
    in
    List.filter_map
      (fun (sp : Fs_obs.Span.span) ->
        if (sp.parent = 0 && sp.name <> "pipeline") || List.mem sp.parent pipelines
        then
          let events =
            Option.fold ~none:0 ~some:int_of_string (List.assoc_opt "events" sp.attrs)
          in
          Some (sp.name, Fs_obs.Span.duration recorder sp, events)
        else None)
      spans

let phases_json phases =
  Json.List
    (List.map
       (fun (name, seconds, events) ->
         Json.Obj
           [ ("phase", Json.String name);
             ("seconds", Json.float seconds);
             ("events", Json.Int events) ])
       phases)

let render_phases phases =
  let total = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 phases in
  Fs_util.Table.render ~header:[ "phase"; "time"; "share"; "events" ]
    (List.map
       (fun (name, seconds, events) ->
         [ name;
           Printf.sprintf "%.1f ms" (seconds *. 1000.0);
           (if total > 0.0 then Fs_util.Table.pct (seconds /. total) else "-");
           (if events > 0 then string_of_int events else "-") ])
       phases)

let report_cmd =
  let run w q json () =
    let rq = R.resolve ~command:"report" (R.Workload w) q in
    let r =
      Pipeline.run ?sched:(R.sched rq) rq.prog ~nprocs:rq.nprocs ~block:rq.block
    in
    if json then print_json (Json.Obj [ ("report", Emit.transform_report r.Pipeline.report);
                                        ("profile", phases_json (pipeline_phases ()));
                                        ("metrics", Fs_obs.Metrics.to_json r.metrics) ])
    else begin
      Format.printf "%a@." T.pp_report r.Pipeline.report;
      print_endline "pipeline phases:";
      print_string (render_phases (pipeline_phases ()))
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the compile-time analysis and print its decisions, with a \
          wall-clock profile of every pipeline phase.")
    (telemetrize "report"
       Term.(const run $ workload_arg $ query_term ~command:"report" () $ json_arg))

(* --- source --- *)

let source_cmd =
  let run w q json () =
    let r = R.resolve ~command:"source" (R.Workload w) q in
    let src = Fs_ir.Pp.program_to_string r.prog in
    if json then
      print_json
        (Json.Obj [ ("workload", Json.String w.W.name); ("source", Json.String src) ])
    else print_string src
  in
  Cmd.v (Cmd.info "source" ~doc:"Print a benchmark's ParC source.")
    (telemetrize "source"
       Term.(const run $ workload_arg
             $ query_term ~command:"source" ~block:false ~seed:false ()
             $ json_arg))

(* --- sim --- *)

let sim_cmd =
  let run w q jobs json () =
    let r = R.resolve ~command:"sim" (R.Workload w) q in
    let runs = R.simulate ~jobs r in
    if json then
      print_json (Emit.sim ~workload:r.name ~nprocs:r.nprocs ~block:r.block runs)
    else begin
      let header = [ "version"; "accesses"; "misses"; "false sharing"; "miss rate" ] in
      let rows = List.map (fun (name, r) -> name :: count_cells r.Sim.counts) runs in
      print_string (Fs_util.Table.render ~header rows)
    end
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Trace-driven cache simulation of a benchmark: the execution is \
          interpreted once and replayed under each version's layout.")
    (telemetrize "sim"
       Term.(const run $ workload_arg $ query_term ~command:"sim" () $ jobs_arg
             $ json_arg))

(* --- speedup --- *)

let speedup_cmd =
  let procs_arg =
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 12; 16; 24; 32 ]
         & info [ "procs-list" ] ~docv:"P,P,..." ~doc:"Processor counts to sweep.")
  in
  let run w procs jobs json () =
    reject_dynamic ~cmd:"speedup" w;
    let series = E.speedups ~procs ~names:[ w.W.name ] ~jobs () in
    output json Emit.series E.render_series series
  in
  Cmd.v
    (Cmd.info "speedup" ~doc:"KSR2-model scalability curves for one benchmark.")
    (telemetrize "speedup"
       Term.(const run $ workload_arg $ procs_arg $ jobs_arg $ json_arg))

(* --- hotspots --- *)

let hotspots_cmd =
  let run w q json () =
    let r = R.resolve ~command:"hotspots" (R.Workload w) q in
    let rows = R.replay r Falseshare.Attribution.attribute in
    output json Emit.attribution Falseshare.Attribution.render rows
  in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:
         "Attribute simulated misses back to the shared data structures — \
          the dynamic counterpart of the compiler's static report.")
    (telemetrize "hotspots"
       Term.(const run $ workload_arg $ query_term ~command:"hotspots" ~layout:true ()
             $ json_arg))

(* --- blame --- *)

let blame_cmd =
  let epochs_arg =
    Arg.(value & flag
         & info [ "epochs" ]
             ~doc:"Also segment the run at barrier releases and append the \
                   per-epoch sharing profile.")
  in
  let run w q epochs json () =
    let r = R.resolve ~command:"blame" (R.Workload w) q in
    let b = R.replay r (Falseshare.Blame.analyze ~top:r.top) in
    let ph = if epochs then Some (R.replay r Falseshare.Phases.analyze) else None in
    if json then
      print_json
        (match ph with
         | None -> Emit.blame b
         | Some p ->
           Json.Obj [ ("blame", Emit.blame b); ("phases", Emit.phases p) ])
    else begin
      print_string (Falseshare.Blame.render b);
      match ph with
      | None -> ()
      | Some p ->
        print_newline ();
        print_string (Falseshare.Phases.render p)
    end
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "The false-sharing blame matrix: per shared variable, which \
          processor's writes invalidate which processor's cached copies \
          (split by upgrade vs. write miss), plus the hottest blocks with \
          their owning variable and cell ranges.")
    (telemetrize "blame"
       Term.(const run $ workload_arg
             $ query_term ~command:"blame" ~layout:true
                 ~top:"How many hot blocks to list." ()
             $ epochs_arg $ json_arg))

(* --- phases --- *)

let phases_cmd =
  let run w q json () =
    let r = R.resolve ~command:"phases" (R.Workload w) q in
    let p = R.replay r Falseshare.Phases.analyze in
    output json Emit.phases Falseshare.Phases.render p
  in
  Cmd.v
    (Cmd.info "phases"
       ~doc:
         "Phase-resolved sharing profile: split the replay into \
          barrier-delimited epochs, report each epoch's miss-class \
          counters and observed write-sharing, and cross-check the \
          dynamic epochs against the static non-concurrency phases.")
    (telemetrize "phases"
       Term.(const run $ workload_arg $ query_term ~command:"phases" ~layout:true () $ json_arg))

(* --- hotlines --- *)

let hotlines_cmd =
  let run w q json () =
    let r = R.resolve ~command:"hotlines" (R.Workload w) q in
    let h = R.replay r (Falseshare.Hotlines.analyze ~top:r.top) in
    output json Emit.hotlines Falseshare.Hotlines.render h
  in
  Cmd.v
    (Cmd.info "hotlines"
       ~doc:
         "Hot cache lines with their lifetimes: ownership migrations, \
          ping-pong scores, invalidation chains, and word-level \
          footprints, attributed to the owning variable with the \
          transformation that would fix each line.")
    (telemetrize "hotlines"
       Term.(const run $ workload_arg
             $ query_term ~command:"hotlines" ~layout:true
                 ~top:"How many hot lines to list." ()
             $ json_arg))

(* --- repair --- *)

let repair_cmd =
  let workload_opt_arg =
    Arg.(value & pos 0 (some wconv) None & info [] ~docv:"WORKLOAD")
  in
  let stealing_arg =
    Arg.(value & flag
         & info [ "stealing" ]
             ~doc:"Run the dynamic-suite N/C/F comparison instead: every \
                   spawn/sync workload on the seeded work-stealing \
                   scheduler, with the scheduler-deque false sharing \
                   isolated in its own columns.  Use $(b,--sched-seed) to \
                   pick the steal schedule (default 42).")
  in
  let run w (q : R.query) stealing jobs json () =
    match w with
    | Some w ->
      let r = R.resolve ~command:"repair" (R.Workload w) q in
      let options = { Fs_feedback.Repair.max_iters = r.max_iters; top = r.top } in
      let res = R.replay r (Fs_feedback.Repair.refine ~options) in
      output json Fs_feedback.Repair.to_json Fs_feedback.Repair.render res
    | None when stealing ->
      (* the dynamic family under the work-stealing scheduler *)
      let seed = Option.value q.seed ~default:42 in
      let rows = Fs_feedback.Repair_experiments.stealing_table ~seed ~jobs () in
      Fs_feedback.Repair_experiments.(output json stealing_to_json render_stealing rows)
    | None ->
      (* no workload: the suite-wide N/C/P/F comparison *)
      let rows = Fs_feedback.Repair_experiments.table ~jobs () in
      Fs_feedback.Repair_experiments.(output json to_json render rows)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Profile-guided layout repair: replay the recorded execution \
          under the starting layout, extract repair candidates from the \
          hot-line forensics, apply the best one, and iterate to a \
          fixpoint.  With a workload, narrate the refinement; without \
          one, print the suite-wide N/C/P/F comparison (static suite by \
          default, the dynamic work-stealing family with $(b,--stealing)).")
    (telemetrize "repair"
       Term.(const run $ workload_opt_arg
             $ query_term ~command:"repair" ~layout:true ~max_iters:true ()
             $ stealing_arg $ jobs_arg $ json_arg))

(* --- timeline --- *)

let timeline_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output file; \"-\" for stdout.  Default: <workload>.trace.json.")
  in
  let run w q out () =
    let r = R.resolve ~command:"timeline" (R.Workload w) q in
    let nprocs = r.nprocs and block = r.block in
    let layout = Fs_layout.Layout.realize r.prog (R.plan r) ~block in
    let tl = Fs_obs.Timeline.create ~nprocs in
    let recorded = R.recorded r in
    (* a cache rides along so each barrier release can drop one sample of
       the epoch's miss-class deltas onto a Chrome-trace counter track *)
    let cache = C.create (C.default_config ~nprocs ~block) in
    let prev = ref (C.copy_counts (C.counts cache)) in
    let push_counters () =
      let now = C.copy_counts (C.counts cache) in
      let d = C.sub_counts now !prev in
      prev := now;
      Fs_obs.Timeline.counter tl ~name:"misses per epoch"
        ~ts:(Fs_obs.Timeline.time tl)
        ~values:
          [ ("cold", float_of_int d.C.cold);
            ("replacement", float_of_int d.C.repl);
            ("true sharing", float_of_int d.C.true_sh);
            ("false sharing", float_of_int d.C.false_sh) ]
    in
    let module L = Fs_trace.Listener in
    let listener =
      L.combine
        (Fs_obs.Timeline.listener tl)
        (L.combine
           (L.of_sink (C.touch cache))
           { L.null with barrier_release = push_counters })
    in
    Fs_replay.Replay.drive recorded.Sim.trace ~layout ~listener;
    push_counters ();
    match out with
    | Some "-" -> print_json (Fs_obs.Timeline.to_json tl)
    | out ->
      let path = Option.value out ~default:(w.W.name ^ ".trace.json") in
      Fs_obs.Timeline.write_file tl path;
      Printf.printf
        "wrote %d trace events to %s (open in https://ui.perfetto.dev or \
         chrome://tracing)\n"
        (Fs_obs.Timeline.events tl) path
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Record a benchmark run's per-processor timeline — work segments, \
          barrier waits, lock convoys — as Chrome trace-event JSON for \
          Perfetto.")
    (telemetrize "timeline"
       Term.(const run $ workload_arg $ query_term ~command:"timeline" ~layout:true () $ out_arg))

(* --- check (.parc sources) --- *)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.parc")
  in
  let procs_for_run =
    Arg.(value & opt (some int) None
         & info [ "run" ] ~docv:"P" ~doc:"Also execute with P processes.")
  in
  let run file procs json () =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match
      Fs_obs.Span.timed "parse" (fun () ->
          Fs_obs.Span.note "events" (string_of_int (String.length src));
          Fs_parc.Parser.parse_and_validate src)
    with
    | Error errs ->
      if json then
        print_json
          (Json.Obj
             [ ("ok", Json.Bool false);
               ("errors", Json.List (List.map (fun e -> Json.String e) errs)) ])
      else List.iter prerr_endline errs;
      exit 1
    | Ok prog -> (
      match procs with
      | None ->
        if json then
          print_json
            (Json.Obj
               [ ("ok", Json.Bool true);
                 ("name", Json.String prog.Fs_ir.Ast.pname);
                 ("globals", Json.Int (List.length prog.Fs_ir.Ast.globals));
                 ("functions", Json.Int (List.length prog.Fs_ir.Ast.funcs)) ])
        else
          Printf.printf "%s: ok (%d globals, %d functions)\n" prog.Fs_ir.Ast.pname
            (List.length prog.Fs_ir.Ast.globals)
            (List.length prog.Fs_ir.Ast.funcs)
      | Some nprocs ->
        let q =
          { R.nprocs = Some nprocs; scale = None; block = None; layout = None;
            seed = None; top = None; max_iters = None }
        in
        let rq = R.resolve ~command:"check" (R.Source src) q in
        let r = Pipeline.run rq.R.prog ~nprocs:rq.R.nprocs ~block:rq.R.block in
        if json then
          print_json
            (Json.Obj
               [ ("ok", Json.Bool true);
                 ("name", Json.String prog.Fs_ir.Ast.pname);
                 ("report", Emit.transform_report r.Pipeline.report);
                 ("profile", phases_json (pipeline_phases ())) ])
        else begin
          Printf.printf "%s: ok (%d globals, %d functions)\n" prog.Fs_ir.Ast.pname
            (List.length prog.Fs_ir.Ast.globals)
            (List.length prog.Fs_ir.Ast.funcs);
          Format.printf "%a@." T.pp_report r.Pipeline.report;
          print_endline "pipeline phases:";
          print_string (render_phases (pipeline_phases ()))
        end)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a ParC source file.")
    (telemetrize "check" Term.(const run $ file_arg $ procs_for_run $ json_arg))

(* --- profile --- *)

let profile_cmd =
  let interval_arg =
    Arg.(value & opt int 4096
         & info [ "flight-interval" ] ~docv:"N"
             ~doc:"Packed events between flight-recorder samples.")
  in
  let run w q jobs interval json () =
    (* the ambient recorder was installed by the telemetry scope; grab it
       so the report can render the tree this very command grew *)
    let recorder =
      match Fs_obs.Span.current () with Some r -> r | None -> assert false
    in
    let r = R.resolve ~command:"profile" (R.Workload w) q in
    let nprocs = r.nprocs and scale = r.scale in
    let flight = Fs_replay.Flight.create ~interval () in
    let sweep, pool =
      R.replay r (fun ~recorded prog plan ~nprocs ~block ->
          (* the block sweep exercises the domain pool; its stats become
             the per-worker summary *)
          let sweep =
            Fs_obs.Span.timed "block-sweep"
              ~attrs:[ ("jobs", string_of_int jobs) ]
              (fun () -> R.sweep ~jobs ~recorded prog plan ~nprocs ~block)
          in
          (* one flight-instrumented fused replay at the paper's block
             size, the block a profile is resolved at *)
          Fs_obs.Span.timed "flight-replay"
            ~attrs:[ ("interval", string_of_int interval) ]
            (fun () -> ignore (Sim.cache_sim ~flight ~recorded prog plan ~nprocs ~block));
          sweep)
    in
    if json then
      print_json
        (Json.Obj
           [ ("workload", Json.String w.W.name);
             ("nprocs", Json.Int nprocs);
             ("scale", Json.Int scale);
             ("spans", Fs_obs.Span.to_json recorder);
             ("pool", Fs_obs.Pool.to_json pool);
             ("flight", Fs_replay.Flight.to_json flight);
             ("sweep",
              Json.List
                (List.map
                   (fun (block, (c : C.counts)) ->
                     Json.Obj
                       [ ("block", Json.Int block);
                         ("misses", Json.Int (C.misses c));
                         ("false_sharing", Json.Int c.C.false_sh) ])
                   sweep)) ])
    else begin
      Printf.printf "profile: %s (P=%d, scale=%d, --jobs %d)\n\n" w.W.name
        nprocs scale jobs;
      print_endline "spans:";
      print_string (Fs_obs.Span.render recorder);
      print_newline ();
      print_endline "domain pool (block sweep):";
      print_string (Fs_util.Par.render_stats pool);
      print_newline ();
      print_string (Fs_replay.Flight.render flight)
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile one workload end to end: causal span tree of every \
          pipeline stage, per-worker domain-pool summary of a cache-block \
          sweep, and a flight-recorder digest of the fused replay hot \
          loop.")
    (telemetrize "profile"
       Term.(const run $ workload_arg $ query_term ~command:"profile" ~block:false ()
             $ jobs_arg $ interval_arg $ json_arg))

(* --- serve --- *)

let serve_cmd =
  let port_arg =
    Arg.(value & opt int 8414
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (127.0.0.1 only); 0 picks an \
                   ephemeral port.")
  in
  let workers_arg =
    Arg.(value & opt int Fs_serve.Server.default_config.workers
         & info [ "workers" ] ~docv:"N" ~doc:"Worker threads draining the request queue.")
  in
  let queue_arg =
    Arg.(value & opt int Fs_serve.Server.default_config.queue_capacity
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admitted-request bound; beyond it the daemon answers \
                   503 with Retry-After.")
  in
  let cache_dir_arg =
    Arg.(value & opt string Fs_serve.Server.default_config.cache_dir
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Root of the content-addressed result store.")
  in
  let cache_budget_arg =
    Arg.(value & opt int (Fs_serve.Server.default_config.cache_budget_bytes / (1024 * 1024))
         & info [ "cache-budget-mb" ] ~docv:"MB"
             ~doc:"Byte budget of the result store; least recently used \
                   entries are evicted beyond it.")
  in
  let debug_arg =
    Arg.(value & flag
         & info [ "debug-endpoints" ]
             ~doc:"Enable the debug endpoints (GET /sleepz) used by tests \
                   and benchmarks.")
  in
  (* not telemetrize-wrapped: the daemon owns its own registry and span
     recorders per request; the CLI scope's ambient state would only
     race the worker threads *)
  let run port workers queue jobs cache_dir budget_mb debug =
    let cfg =
      { Fs_serve.Server.port; workers; queue_capacity = queue; jobs; cache_dir;
        cache_budget_bytes = budget_mb * 1024 * 1024;
        debug_endpoints = debug }
    in
    let t = Fs_serve.Server.start cfg in
    Printf.printf
      "falseshare serve: listening on http://127.0.0.1:%d (workers %d, \
       queue %d, jobs %d, cache %s)\n\
       endpoints: POST /analyze /blame /hotlines /phases /repair /profile; \
       GET /healthz /metrics /statusz; POST /quitquitquit\n%!"
      (Fs_serve.Server.port t) workers queue jobs cache_dir;
    (* the handler runs on this very thread, which is about to block in
       [wait]: it may only trigger the shutdown, never join *)
    let stop_on_signal _ = Fs_serve.Server.shutdown t in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    Fs_serve.Server.wait t;
    print_endline "falseshare serve: stopped"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: a multi-tenant HTTP/JSON server that \
          answers the toolchain's queries over recorded executions, with \
          a content-addressed result cache, request coalescing, bounded-\
          queue backpressure, and a live Prometheus surface at /metrics.")
    Term.(const run $ port_arg $ workers_arg $ queue_arg $ jobs_arg
          $ cache_dir_arg $ cache_budget_arg $ debug_arg)

(* --- trace: on-disk recordings ------------------------------------ *)

module Ct = Fs_trace.Cell_trace

let block_events_arg =
  Arg.(value & opt int Ct.default_block_events
       & info [ "block-events" ] ~docv:"N"
           ~doc:"Events per trace block (default 65536).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let mb = 1024. *. 1024.

(* A trace file is input from outside the program: a damaged, truncated
   or foreign one ends the command with one line naming the file and the
   cause, never an uncaught exception. *)
let trace_error path cause =
  Printf.eprintf "falseshare: %s: %s\n" path cause;
  exit 1

let open_trace path =
  match Ct.of_file_stream path with
  | s -> s
  | exception Ct.Corrupt msg ->
    trace_error path ("not a valid trace file (" ^ msg ^ ")")
  | exception Unix.Unix_error (e, _, _) -> trace_error path (Unix.error_message e)

let trace_stat_json path =
  let s = open_trace path in
  let events = Ct.Stream.length s in
  let bytes = Ct.Stream.byte_size s in
  let j =
    Json.Obj
      [ ("file", Json.String path);
        ("events", Json.Int events);
        ("nprocs", Json.Int (Ct.Stream.nprocs s));
        ("vars", Json.Int (Array.length (Ct.Stream.vars s)));
        ("bytes", Json.Int bytes);
        ("bytes_per_event",
         Json.Float (float_of_int bytes /. float_of_int (max 1 events)));
        ("blocks", Json.Int (Ct.Stream.nblocks s));
        ("block_events", Json.Int (Ct.Stream.max_block_events s));
        ("epochs", Json.Int (Array.length (Ct.Stream.epochs s))) ]
  in
  Ct.Stream.close s;
  j

let print_trace_stat ~heading path =
  match trace_stat_json path with
  | Json.Obj fields ->
    Printf.printf "%s %s\n" heading path;
    List.iter
      (fun (k, v) ->
        match v with
        | Json.Int n when k <> "file" -> Printf.printf "  %-16s %d\n" k n
        | Json.Float f -> Printf.printf "  %-16s %.3f\n" k f
        | _ -> ())
      fields
  | _ -> assert false

let trace_record_cmd =
  let run w q out block_events json () =
    let r = R.resolve ~command:"trace-record" (R.Workload w) q in
    let prog = r.prog and nprocs = r.nprocs and scale = r.scale in
    let sched = R.sched r in
    let path = Option.value out ~default:(w.W.name ^ ".fstrace") in
    let t0 = Unix.gettimeofday () in
    (* stream straight to disk: the recording never materializes in
       memory, which is what makes --scale large enough for 10^8-event
       captures practical *)
    let wr =
      Ct.Writer.create ~block_events ~vars:(Fs_interp.Interp.vars prog)
        ~nprocs path
    in
    (* registered workloads terminate by construction, and --scale can
       legitimately push a capture past the default nontermination
       guard, so run unguarded *)
    (match
       Fs_interp.Interp.run_cells ~max_steps:max_int ?sched prog ~nprocs
         ~push:(Ct.Writer.push wr)
     with
    | _ -> Ct.Writer.close wr
    | exception e ->
      Ct.Writer.abort wr;
      raise e);
    let dt = Unix.gettimeofday () -. t0 in
    let events = Ct.Writer.length wr in
    let bytes = (Unix.stat path).Unix.st_size in
    if json then
      print_json
        (Json.Obj
           [ ("workload", Json.String w.W.name);
             ("nprocs", Json.Int nprocs);
             ("scale", Json.Int scale);
             ("file", Json.String path);
             ("events", Json.Int events);
             ("bytes", Json.Int bytes);
             ("bytes_per_event",
              Json.Float (float_of_int bytes /. float_of_int (max 1 events)));
             ("seconds", Json.Float dt) ])
    else
      Printf.printf
        "recorded %s: %d events to %s (%d bytes, %.3f B/event, %.2fs, \
         %.1f Mevents/s)\n"
        w.W.name events path bytes
        (float_of_int bytes /. float_of_int (max 1 events))
        dt
        (float_of_int events /. 1e6 /. Float.max 1e-9 dt)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Interpret a workload once and stream the cell-event recording \
          to disk (constant memory however long the run; use $(b,--scale) \
          to size it).")
    (telemetrize "trace-record"
       Term.(const run $ workload_arg $ query_term ~command:"trace-record" ~block:false ()
             $ trace_out_arg $ block_events_arg $ json_arg))

let trace_stat_cmd =
  let run path json () =
    if json then print_json (trace_stat_json path)
    else print_trace_stat ~heading:"trace" path
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Describe a trace file: event/epoch/block counts, bytes per \
          event.")
    (telemetrize "trace-stat" Term.(const run $ trace_file_arg $ json_arg))

let trace_replay_cmd =
  let workload_pos1 =
    Arg.(required & pos 1 (some wconv) None & info [] ~docv:"WORKLOAD")
  in
  let run path w (q : R.query) json () =
    let s = open_trace path in
    (* the processor count is the recording's *)
    let nprocs = Ct.Stream.nprocs s in
    let r =
      R.resolve ~command:"trace-replay" (R.Workload w) { q with nprocs = Some nprocs }
    in
    let scale = r.scale and block = r.block in
    let layout = Fs_layout.Layout.realize r.prog (R.plan r) ~block in
    let config = C.default_config ~nprocs ~block in
    let cache = C.create ~max_addr:(Fs_layout.Layout.size layout) config in
    let t0 = Unix.gettimeofday () in
    let run =
      (* the trace header names no workload or scale: a foreign trace
         shows as a variable the layout lacks, or an access outside it *)
      match Fs_replay.Replay.simulate_stream s ~layout ~cache with
      | r -> r
      | exception Ct.Corrupt msg ->
        trace_error path ("damaged trace (" ^ msg ^ ")")
      | exception Invalid_argument _ ->
        trace_error path
          (Printf.sprintf
             "recorded for a different workload/scale (replayed as %s at \
              --scale %d)"
             w.W.name scale)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let events = Ct.Stream.length s in
    let bytes = Ct.Stream.byte_size s in
    Ct.Stream.close s;
    let c = run.Fs_replay.Replay.counts in
    if json then
      print_json
        (Json.Obj
           [ ("file", Json.String path);
             ("workload", Json.String w.W.name);
             ("nprocs", Json.Int nprocs);
             ("block", Json.Int block);
             ("events", Json.Int events);
             ("bytes", Json.Int bytes);
             ("seconds", Json.Float dt);
             ("mevents_per_s",
              Json.Float (float_of_int events /. 1e6 /. Float.max 1e-9 dt));
             ("mb_per_s",
              Json.Float (float_of_int bytes /. mb /. Float.max 1e-9 dt));
             ("epochs", Json.Int (Array.length run.Fs_replay.Replay.epochs));
             ("counts",
              Json.Obj
                [ ("accesses", Json.Int (C.accesses c));
                  ("misses", Json.Int (C.misses c));
                  ("false_sharing", Json.Int c.C.false_sh);
                  ("true_sharing", Json.Int c.C.true_sh);
                  ("cold", Json.Int c.C.cold);
                  ("replacement", Json.Int c.C.repl) ]) ])
    else begin
      Printf.printf
        "replayed %s through %s/%s: %d events in %.2fs (%.1f Mevents/s, \
         %.1f MB/s read)\n"
        path w.W.name
        (R.layout_name r.version)
        events dt
        (float_of_int events /. 1e6 /. Float.max 1e-9 dt)
        (float_of_int bytes /. mb /. Float.max 1e-9 dt);
      let header = [ "accesses"; "misses"; "false sharing"; "miss rate" ] in
      print_string (Fs_util.Table.render ~header [ count_cells c ])
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded trace file through a workload's layout, one \
          block at a time, reporting counts, Mevents/s, and effective \
          read bandwidth.  The processor count comes from the trace; pass \
          the same $(b,--scale) the recording used.")
    (telemetrize "trace-replay"
       Term.(const run $ trace_file_arg $ workload_pos1
             $ query_term ~command:"trace-replay" ~nprocs:false ~seed:false ~layout:true ()
             $ json_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, inspect, and replay on-disk trace files — the durable \
          form of one interpreted execution.")
    [ trace_record_cmd; trace_stat_cmd; trace_replay_cmd ]

(* --- paper reproductions --- *)

let paper_cmd name doc ~text ~json =
  let run jobs use_json () =
    if use_json then print_json (json ~jobs) else print_string (text ~jobs)
  in
  Cmd.v (Cmd.info name ~doc)
    (telemetrize name Term.(const run $ jobs_arg $ json_arg))

let fig3_cmd =
  paper_cmd "fig3" "Reproduce Figure 3 (miss rates before/after)."
    ~text:(fun ~jobs -> E.render_figure3 (E.figure3 ~jobs ()))
    ~json:(fun ~jobs -> Emit.fig3 (E.figure3 ~jobs ()))

let table2_cmd =
  paper_cmd "table2" "Reproduce Table 2 (reduction by transformation)."
    ~text:(fun ~jobs -> E.render_table2 (E.table2 ~jobs ()))
    ~json:(fun ~jobs -> Emit.table2 (E.table2 ~jobs ()))

let fig4_cmd =
  paper_cmd "fig4" "Reproduce Figure 4 (scalability curves)."
    ~text:(fun ~jobs -> E.render_series (E.figure4 ~jobs ()))
    ~json:(fun ~jobs -> Emit.series (E.figure4 ~jobs ()))

let table3_cmd =
  paper_cmd "table3" "Reproduce Table 3 (maximum speedups)."
    ~text:(fun ~jobs -> E.render_table3 (E.table3 ~jobs ()))
    ~json:(fun ~jobs -> Emit.table3 (E.table3 ~jobs ()))

let stats_cmd =
  paper_cmd "stats" "Reproduce the headline statistics."
    ~text:(fun ~jobs -> E.render_stats (E.text_stats ~jobs ()))
    ~json:(fun ~jobs -> Emit.stats (E.text_stats ~jobs ()))

let exectime_cmd =
  paper_cmd "exectime" "Reproduce the execution-time improvements."
    ~text:(fun ~jobs -> E.render_exec (E.exec_time_improvements ~jobs ()))
    ~json:(fun ~jobs -> Emit.exec (E.exec_time_improvements ~jobs ()))

let () =
  let doc =
    "Compile-time shared-data transformations that reduce false sharing \
     (reproduction of Jeremiassen & Eggers, PPoPP 1995)."
  in
  let info = Cmd.info "falseshare" ~version:"1.0.0" ~doc in
  let cmds =
    [ list_cmd; report_cmd; source_cmd; sim_cmd; speedup_cmd; hotspots_cmd;
      blame_cmd; phases_cmd; hotlines_cmd; repair_cmd; timeline_cmd;
      profile_cmd; check_cmd; serve_cmd; trace_cmd; fig3_cmd; table2_cmd; fig4_cmd;
      table3_cmd; stats_cmd; exectime_cmd ]
  in
  (* same near-miss courtesy the workload argument gets: a mistyped
     subcommand gets a suggestion, not just cmdliner's usage dump *)
  let names = List.map Cmd.name cmds in
  (match Array.to_list Sys.argv with
   | _ :: arg :: _
     when String.length arg > 0 && arg.[0] <> '-' && not (List.mem arg names)
     -> (
     match Fs_util.Strdist.suggest arg names with
     | [] -> ()
     | near ->
       Printf.eprintf "falseshare: unknown command %S, did you mean %s?\n" arg
         (String.concat " or " (List.map (Printf.sprintf "%S") near));
       exit 124)
   | _ -> ());
  exit (Cmd.eval (Cmd.group info cmds))
