module Workload = Fs_workloads.Workload
module Workloads = Fs_workloads.Workloads
module Plan = Fs_layout.Plan
module Mpcache = Fs_cache.Mpcache
module Table = Fs_util.Table
module Par = Fs_util.Par
module Json = Fs_obs.Json
module E = Falseshare.Experiments
module Trace_memo = Falseshare.Trace_memo
module Sim = Falseshare.Sim

type cell = { accesses : int; misses : int; false_sharing : int }

type refined = {
  rcell : cell;
  iters : int;
  stop : Repair.stop;
  repairs : string list;
}

type row = {
  name : string;
  procs : int;
  block : int;
  unopt : cell;
  compiler : cell;
  feedback : refined;
  programmer : cell option;
  feedback_p : refined option;
  locks_repaired : bool;
}

let cell_of_counts (c : Mpcache.counts) =
  {
    accesses = Mpcache.accesses c;
    misses = Mpcache.misses c;
    false_sharing = c.Mpcache.false_sh;
  }

let refined_of (r : Repair.t) =
  {
    rcell = cell_of_counts r.Repair.final;
    iters = Repair.accepted r;
    stop = r.Repair.stop;
    repairs =
      List.filter_map
        (fun (it : Repair.iteration) ->
          Option.map Repair.candidate_label it.Repair.applied)
        r.Repair.iterations;
  }

let table ?(blocks = [ 16; 128 ]) ?scale_override ?jobs () =
  let configs =
    List.map
      (fun (w : Workload.t) ->
        (w, w.fig3_procs, Option.value scale_override ~default:w.default_scale))
      Workloads.all
  in
  let entries = Trace_memo.get_all ?jobs configs in
  let tasks =
    List.concat
      (List.map2
         (fun (w, nprocs, scale) (e : Trace_memo.entry) ->
           let cplan = E.plan_for w Workload.C e.prog ~nprocs ~scale in
           let pplan =
             if List.mem Workload.P w.Workload.versions then
               Some (E.plan_for w Workload.P e.prog ~nprocs ~scale)
             else None
           in
           List.map (fun block -> (w, nprocs, e, cplan, pplan, block)) blocks)
         configs entries)
  in
  Par.map ?jobs
    (fun ((w : Workload.t), nprocs, (e : Trace_memo.entry), cplan, pplan, block)
    ->
      let recorded = e.recorded in
      let counts plan =
        cell_of_counts (Sim.cache_sim ~recorded e.prog plan ~nprocs ~block).Sim.counts
      in
      let f = Repair.refine ~recorded e.prog cplan ~nprocs ~block in
      let fp =
        Option.map
          (fun p -> Repair.refine ~recorded e.prog p ~nprocs ~block)
          pplan
      in
      let locks_repaired =
        match (pplan, fp) with
        | Some p, Some r ->
          (not (List.mem Plan.Pad_locks p))
          && List.mem Plan.Pad_locks r.Repair.plan
        | _ -> false
      in
      {
        name = w.name;
        procs = nprocs;
        block;
        unopt = counts Plan.empty;
        compiler = counts cplan;
        feedback = refined_of f;
        programmer = Option.map counts pplan;
        feedback_p = Option.map refined_of fp;
        locks_repaired;
      })
    tasks

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let render rows =
  let header =
    [ "program"; "P"; "block"; "N FS%"; "C FS%"; "F FS%"; "C->F removed";
      "iters"; "stop"; "P FS%"; "F(P) FS%"; "locks fixed" ]
  in
  let body =
    List.map
      (fun r ->
        let fs c = Table.pct (rate c.false_sharing c.accesses) in
        let removed =
          if r.compiler.false_sharing = 0 then "-"
          else
            Table.pct
              (rate
                 (r.compiler.false_sharing - r.feedback.rcell.false_sharing)
                 r.compiler.false_sharing)
        in
        [ r.name;
          string_of_int r.procs;
          string_of_int r.block;
          fs r.unopt;
          fs r.compiler;
          fs r.feedback.rcell;
          removed;
          string_of_int r.feedback.iters;
          Repair.stop_to_string r.feedback.stop;
          (match r.programmer with Some c -> fs c | None -> "-");
          (match r.feedback_p with Some f -> fs f.rcell | None -> "-");
          (if r.locks_repaired then "yes"
           else match r.feedback_p with Some _ -> "no" | None -> "-") ])
      rows
  in
  Table.render ~header body

let cell_json c =
  Json.Obj
    [ ("accesses", Json.Int c.accesses);
      ("misses", Json.Int c.misses);
      ("false_sharing", Json.Int c.false_sharing) ]

let refined_json f =
  Json.Obj
    [ ("counts", cell_json f.rcell);
      ("iterations", Json.Int f.iters);
      ("stop", Json.String (Repair.stop_to_string f.stop));
      ("repairs", Json.List (List.map (fun s -> Json.String s) f.repairs)) ]

let to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("program", Json.String r.name);
             ("procs", Json.Int r.procs);
             ("block", Json.Int r.block);
             ("unopt", cell_json r.unopt);
             ("compiler", cell_json r.compiler);
             ("feedback", refined_json r.feedback);
             ("programmer",
              match r.programmer with
              | None -> Json.Null
              | Some c -> cell_json c);
             ("feedback_from_programmer",
              match r.feedback_p with
              | None -> Json.Null
              | Some f -> refined_json f);
             ("locks_repaired", Json.Bool r.locks_repaired) ])
       rows)

(* ------------------------------------------------------------------ *)
(* The stealing table: N/C/F over the dynamic workload family.  The
   compiler version is planned from the AST, which shows neither the
   scheduler's deque traffic nor which process a stolen task's writes
   land on — so C leaves residual false sharing that the profile-guided
   repair removes.  The deque columns isolate the scheduler's own share:
   false-sharing misses on blocks owned by the [__sched_] globals.      *)

module Sched = Fs_sched.Sched
module Attribution = Falseshare.Attribution
module Layout = Fs_layout.Layout
module Cell_trace = Fs_trace.Cell_trace
module Cell_event = Fs_trace.Cell_event

type steal_row = {
  sname : string;
  sprocs : int;
  sblock : int;
  sseed : int;
  stasks : int;   (** tasks spawned (0 for a disk-loaded trace) *)
  ssteals : int;  (** steal events in the trace *)
  sunopt : cell;
  scompiler : cell;
  sfeedback : refined;
  deque_fs_c : int;  (** false-sharing misses on scheduler blocks under C *)
  deque_fs_f : int;  (** ... and after repair *)
}

let steal_count trace =
  let n = ref 0 in
  Cell_trace.iter
    (function Cell_event.Steal _ -> incr n | _ -> ())
    trace;
  !n

(* false-sharing misses charged to blocks the scheduler globals own *)
let sched_fs ~recorded prog plan ~nprocs ~block =
  let run = Sim.cache_sim ~track_blocks:true ~recorded prog plan ~nprocs ~block in
  let layout = Layout.realize prog plan ~block in
  let owner = Attribution.block_owner prog layout ~block in
  List.fold_left
    (fun acc (b, (c : Mpcache.counts)) ->
      if Sched.is_sched_var (owner b) then acc + c.Mpcache.false_sh else acc)
    0 run.Sim.per_block

let stealing_table ?(blocks = [ 16; 128 ]) ?(seed = 42) ?scale_override
    ?jobs () =
  let configs =
    List.map
      (fun (w : Workload.t) ->
        (w, w.fig3_procs, Option.value scale_override ~default:w.default_scale))
      Workloads.dynamic
  in
  let entries = Trace_memo.get_all ?jobs ~seed configs in
  let tasks =
    List.concat
      (List.map2
         (fun (w, nprocs, scale) (e : Trace_memo.entry) ->
           let cplan = E.plan_for w Workload.C e.prog ~nprocs ~scale in
           List.map (fun block -> (w, nprocs, e, cplan, block)) blocks)
         configs entries)
  in
  Par.map ?jobs
    (fun ((w : Workload.t), nprocs, (e : Trace_memo.entry), cplan, block) ->
      let recorded = e.recorded in
      let counts plan =
        cell_of_counts
          (Sim.cache_sim ~recorded e.prog plan ~nprocs ~block).Sim.counts
      in
      let f = Repair.refine ~recorded e.prog cplan ~nprocs ~block in
      {
        sname = w.name;
        sprocs = nprocs;
        sblock = block;
        sseed = seed;
        stasks =
          (match recorded.Sim.interp.Fs_interp.Interp.sched with
           | Some s -> s.Sched.tasks
           | None -> 0);
        ssteals = steal_count recorded.Sim.trace;
        sunopt = counts Plan.empty;
        scompiler = counts cplan;
        sfeedback = refined_of f;
        deque_fs_c = sched_fs ~recorded e.prog cplan ~nprocs ~block;
        deque_fs_f = sched_fs ~recorded e.prog f.Repair.plan ~nprocs ~block;
      })
    tasks

let render_stealing rows =
  let header =
    [ "program"; "P"; "block"; "tasks"; "steals"; "N FS"; "C FS"; "F FS";
      "C->F removed"; "deque FS C"; "deque FS F"; "repairs" ]
  in
  let body =
    List.map
      (fun r ->
        let removed =
          if r.scompiler.false_sharing = 0 then "-"
          else
            Table.pct
              (rate
                 (r.scompiler.false_sharing - r.sfeedback.rcell.false_sharing)
                 r.scompiler.false_sharing)
        in
        [ r.sname;
          string_of_int r.sprocs;
          string_of_int r.sblock;
          string_of_int r.stasks;
          string_of_int r.ssteals;
          string_of_int r.sunopt.false_sharing;
          string_of_int r.scompiler.false_sharing;
          string_of_int r.sfeedback.rcell.false_sharing;
          removed;
          string_of_int r.deque_fs_c;
          string_of_int r.deque_fs_f;
          String.concat "; " r.sfeedback.repairs ])
      rows
  in
  Table.render ~header body

let stealing_to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("program", Json.String r.sname);
             ("procs", Json.Int r.sprocs);
             ("block", Json.Int r.sblock);
             ("seed", Json.Int r.sseed);
             ("tasks", Json.Int r.stasks);
             ("steals", Json.Int r.ssteals);
             ("unopt", cell_json r.sunopt);
             ("compiler", cell_json r.scompiler);
             ("feedback", refined_json r.sfeedback);
             ("deque_fs_compiler", Json.Int r.deque_fs_c);
             ("deque_fs_feedback", Json.Int r.deque_fs_f) ])
       rows)
