module T = Fs_transform.Transform
module Pdv = Fs_analysis.Pdv
module Nonconcurrency = Fs_analysis.Nonconcurrency
module Summary = Fs_analysis.Summary
module Layout = Fs_layout.Layout
module Mpcache = Fs_cache.Mpcache
module Cell_trace = Fs_trace.Cell_trace
module Metrics = Fs_obs.Metrics
module Span = Fs_obs.Span

type t = {
  report : T.report;
  cache : Sim.cache_run;
  metrics : Metrics.t;
}

let proc_label p = [ ("proc", string_of_int p) ]

let ingest_cache metrics ~proc_counts ~per_block =
  Array.iteri
    (fun p (c : Mpcache.counts) ->
      let set name v =
        Metrics.Counter.add (Metrics.counter metrics ~labels:(proc_label p) name) v
      in
      set "cache_accesses" (Mpcache.accesses c);
      set "cache_misses" (Mpcache.misses c);
      set "cache_false_sharing" c.Mpcache.false_sh;
      set "cache_true_sharing" c.true_sh;
      set "cache_invalidations" c.invalidations;
      set "cache_upgrades" c.upgrades)
    proc_counts;
  let hist =
    Metrics.histogram metrics "cache_block_invalidations"
      ~buckets:[ 1.; 10.; 100.; 1_000.; 10_000. ]
  in
  List.iter
    (fun (_, (c : Mpcache.counts)) ->
      if c.Mpcache.invalidations > 0 then
        Metrics.Histogram.observe hist (float_of_int c.Mpcache.invalidations))
    per_block

(* The interp_* series exactly as [Metrics.listener] registers them on a
   listener replay under the same layout.  Accesses come from the cache:
   the listener sits after the address translation, so they include the
   pointer loads an indirection layout injects.  The rest is one pass
   over the recording.  A work counter registers on any Work event, even
   of amount 0; every other series only when its count is nonzero.  The
   tags and shifts mirror [Cell_event]'s packed layout, written inline
   because its accessors are not inlined across modules; the listener
   differential test pins them down. *)
let ingest_interp metrics ~proc_counts trace =
  let nprocs = Array.length proc_counts in
  let work = Array.make nprocs (-1) (* -1: no Work event yet *)
  and arrivals = Array.make nprocs 0
  and waits = Array.make nprocs 0
  and grants = Array.make nprocs 0
  and contended = Array.make nprocs 0
  and releases = ref 0 in
  let data = Cell_trace.unsafe_data trace in
  for i = 0 to Cell_trace.length trace - 1 do
    let packed = Array.unsafe_get data i in
    let proc = (packed lsr 4) land 0xff in
    match packed land 7 with
    | 1 (* Work *) ->
      let w = work.(proc) in
      work.(proc) <- (if w < 0 then 0 else w) + (packed lsr 12)
    | 2 (* Barrier_arrive *) -> arrivals.(proc) <- arrivals.(proc) + 1
    | 3 (* Barrier_release *) -> incr releases
    | 4 (* Lock_wait *) -> waits.(proc) <- waits.(proc) + 1
    | 5 (* Lock_grant: from + 1 in bits 20-28 *) ->
      if (packed lsr 20) land 0x1ff > 0 then
        contended.(proc) <- contended.(proc) + 1
      else grants.(proc) <- grants.(proc) + 1
    | _ (* Access, counted by the cache; Steal, not translated *) -> ()
  done;
  let add ?(labels = []) name v =
    if v > 0 then Metrics.Counter.add (Metrics.counter metrics ~labels name) v
  in
  Array.iteri
    (fun p (c : Mpcache.counts) ->
      let proc = proc_label p in
      add ~labels:(("kind", "read") :: proc) "interp_accesses" c.Mpcache.reads;
      add ~labels:(("kind", "write") :: proc) "interp_accesses" c.writes;
      if work.(p) >= 0 then
        Metrics.Counter.add
          (Metrics.counter metrics ~labels:proc "interp_work_units")
          work.(p);
      add ~labels:proc "interp_barrier_arrivals" arrivals.(p);
      add ~labels:proc "interp_lock_waits" waits.(p);
      add ~labels:(("contended", "false") :: proc) "interp_lock_grants" grants.(p);
      add ~labels:(("contended", "true") :: proc) "interp_lock_grants"
        contended.(p))
    proc_counts;
  add "interp_barrier_releases" !releases

(* one pipeline stage in its own ambient span, which notes the stage's
   event count as an [events] attribute; with no recorder installed the
   stage runs bare and the count is never taken *)
let stage name ~events f =
  match Span.current () with
  | None -> f ()
  | Some _ ->
    Span.timed name (fun () ->
        let r = f () in
        Span.note "events" (string_of_int (events r));
        r)

let run ?plan ?sched prog ~nprocs ~block =
  Span.timed "pipeline"
    ~attrs:
      [ ("nprocs", string_of_int nprocs); ("block", string_of_int block) ]
  @@ fun () ->
  let metrics = Metrics.create () in
  (* the analyses are timed stage by stage; the transform pass re-runs
     them internally, so its span reflects the full planning cost *)
  ignore
    (stage "pdv"
       ~events:(fun _ -> List.length prog.Fs_ir.Ast.funcs)
       (fun () -> Pdv.analyze prog));
  ignore
    (stage "non-concurrency" ~events:Nonconcurrency.phase_count (fun () ->
         Nonconcurrency.analyze prog));
  ignore
    (stage "summary"
       ~events:(fun s -> List.length (Summary.keys s))
       (fun () ->
         Summary.analyze ~rsd_limit:T.default_options.rsd_limit
           ~profile:T.default_options.profile prog ~nprocs));
  let report =
    stage "transform"
      ~events:(fun (r : T.report) -> List.length r.plan)
      (fun () -> T.plan prog ~nprocs)
  in
  Span.note "plan_actions" (string_of_int (List.length report.T.plan));
  let plan = Option.value plan ~default:report.T.plan in
  let layout =
    stage "layout" ~events:Layout.size (fun () -> Layout.realize prog plan ~block)
  in
  let recorded =
    stage "interp"
      ~events:(fun (r : Sim.recorded) -> Cell_trace.length r.trace)
      (fun () -> Sim.record ?sched prog ~nprocs)
  in
  let trace = recorded.Sim.trace in
  (* the cache's set-up and read-out belong to its layer too *)
  let cache, per_block =
    stage "replay+cache"
      ~events:(fun _ -> Cell_trace.length trace)
      (fun () ->
        let cache, _ = Sim.replay ~track_blocks:true recorded layout ~nprocs in
        let proc_counts = Mpcache.proc_counts cache in
        ingest_interp metrics ~proc_counts trace;
        let per_block = Mpcache.per_block cache in
        ingest_cache metrics ~proc_counts ~per_block;
        (cache, per_block))
  in
  {
    report;
    cache =
      { Sim.counts = Mpcache.counts cache; per_block;
        layout_bytes = Layout.size layout; interp = recorded.Sim.interp };
    metrics;
  }
