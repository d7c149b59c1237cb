module Workload = Fs_workloads.Workload
module Workloads = Fs_workloads.Workloads
module Plan = Fs_layout.Plan
module Mpcache = Fs_cache.Mpcache
module Table = Fs_util.Table
module Par = Fs_util.Par
module Memo = Fs_util.Memo
module Span = Fs_obs.Span

type version = Workload.version

(* ------------------------------------------------------------------ *)
(* Plan memo: figure3, table2, the speedup sweeps and the CLI all ask
   for the same compiler plan; analyze once per (workload, version,
   nprocs, scale).  The memo trusts that [prog] is the workload's build
   at that configuration, which is how every caller obtains it.          *)

let plans : (string * version * int * int, Plan.t) Memo.t =
  Memo.create ()

let plan_for (w : Workload.t) version prog ~nprocs ~scale =
  if nprocs <= 1 then Plan.empty
  else
    match version with
    | Workload.N -> Plan.empty
    | Workload.C | Workload.P ->
      Memo.get plans (w.name, version, nprocs, scale) (fun () ->
          match version with
          | Workload.C -> Sim.compiler_plan prog ~nprocs
          | Workload.P -> (
            match w.programmer_plan with
            | Some f -> f ~nprocs ~scale
            | None ->
              invalid_arg (w.name ^ " has no programmer-optimized version"))
          | Workload.N -> assert false)

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)

type fig3_cell = { accesses : int; misses : int; false_sharing : int }

type fig3_row = {
  name : string;
  procs : int;
  block : int;
  unopt : fig3_cell;
  compiler : fig3_cell;
}

let cell_of_counts (c : Mpcache.counts) =
  {
    accesses = Mpcache.accesses c;
    misses = Mpcache.misses c;
    false_sharing = c.Mpcache.false_sh;
  }

let figure3 ?(blocks = [ 16; 128 ]) ?scale_override ?jobs () =
  Span.timed "figure3"
    ~attrs:
      [ ("blocks", String.concat "," (List.map string_of_int blocks)) ]
  @@ fun () ->
  let ws = Workloads.simulated () in
  let configs =
    List.map
      (fun (w : Workload.t) ->
        (w, w.fig3_procs, Option.value scale_override ~default:w.default_scale))
      ws
  in
  let entries = Trace_memo.get_all ?jobs configs in
  let tasks =
    List.concat
      (List.map2
         (fun (w, nprocs, scale) (e : Trace_memo.entry) ->
           let cplan = plan_for w Workload.C e.prog ~nprocs ~scale in
           List.map (fun block -> (w, nprocs, e, cplan, block)) blocks)
         configs entries)
  in
  Par.map ?jobs
    (fun ((w : Workload.t), nprocs, (e : Trace_memo.entry), cplan, block) ->
      let recorded = e.recorded in
      let unopt = Sim.cache_sim ~recorded e.prog Plan.empty ~nprocs ~block in
      let compiler = Sim.cache_sim ~recorded e.prog cplan ~nprocs ~block in
      {
        name = w.name;
        procs = nprocs;
        block;
        unopt = cell_of_counts unopt.Sim.counts;
        compiler = cell_of_counts compiler.Sim.counts;
      })
    tasks

let pct_rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let render_figure3 rows =
  let header =
    [ "program"; "P"; "block"; "unopt miss%"; "unopt FS%"; "xform miss%";
      "xform FS%"; "FS removed" ]
  in
  let body =
    List.map
      (fun r ->
        let mr c = Table.pct (pct_rate c.misses c.accesses) in
        let fr c = Table.pct (pct_rate c.false_sharing c.accesses) in
        [ r.name;
          string_of_int r.procs;
          string_of_int r.block;
          mr r.unopt;
          fr r.unopt;
          mr r.compiler;
          fr r.compiler;
          Table.pct
            (pct_rate
               (r.unopt.false_sharing - r.compiler.false_sharing)
               r.unopt.false_sharing) ])
      rows
  in
  Table.render ~header body

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

type table2_row = {
  name : string;
  total_reduction : float;
  group_transpose : float;
  indirection : float;
  pad_align : float;
  locks : float;
}

(* The four transformation families, in the paper's column order. *)
let family = function
  | Plan.Group_transpose _ | Plan.Regroup _ -> `Gt
  | Plan.Indirect _ -> `Ind
  | Plan.Pad_align _ -> `Pad
  | Plan.Pad_locks -> `Locks

let table2 ?(blocks = [ 8; 16; 32; 64; 128; 256 ]) ?jobs () =
  Span.timed "table2" @@ fun () ->
  let ws = Workloads.simulated () in
  let configs =
    List.map
      (fun (w : Workload.t) -> (w, w.fig3_procs, w.default_scale))
      ws
  in
  let entries = Trace_memo.get_all ?jobs configs in
  (* per workload: the cumulative plans of the four families, in the
     paper's order — each family's marginal effect on top of the last *)
  let prepped =
    List.map2
      (fun (w, nprocs, scale) (e : Trace_memo.entry) ->
        let cplan = plan_for w Workload.C e.prog ~nprocs ~scale in
        let upto fam prev = prev @ List.filter (fun a -> family a = fam) cplan in
        let p1 = upto `Gt [] in
        let p2 = upto `Ind p1 in
        let p3 = upto `Pad p2 in
        let p4 = upto `Locks p3 in
        (w, nprocs, e, [| Plan.empty; p1; p2; p3; p4 |]))
      configs entries
  in
  let tasks =
    List.concat_map
      (fun (w, nprocs, e, plans) ->
        List.map (fun block -> (w, nprocs, e, plans, block)) blocks)
      prepped
  in
  let fs_counts =
    Par.map ?jobs
      (fun (_, nprocs, (e : Trace_memo.entry), plans, block) ->
        Array.map
          (fun plan ->
            (Sim.cache_sim ~recorded:e.recorded e.prog plan ~nprocs ~block)
              .Sim.counts.Mpcache.false_sh)
          plans)
      tasks
  in
  let by_task = Hashtbl.create 64 in
  List.iter2
    (fun ((w : Workload.t), _, _, _, block) counts ->
      Hashtbl.replace by_task (w.name, block) counts)
    tasks fs_counts;
  List.map
    (fun ((w : Workload.t), _, _, _) ->
      let fractions =
        List.map
          (fun block ->
            let c = Hashtbl.find by_task (w.name, block) in
            let fs0 = c.(0) in
            if fs0 = 0 then (0.0, 0.0, 0.0, 0.0, 0.0)
            else begin
              let f1 = c.(1) and f2 = c.(2) and f3 = c.(3) and f4 = c.(4) in
              let frac a b = float_of_int (a - b) /. float_of_int fs0 in
              ( float_of_int (fs0 - f4) /. float_of_int fs0,
                frac fs0 f1, frac f1 f2, frac f2 f3, frac f3 f4 )
            end)
          blocks
      in
      let avg f = Fs_util.Stats.mean (List.map f fractions) in
      {
        name = w.name;
        total_reduction = avg (fun (t, _, _, _, _) -> t);
        group_transpose = avg (fun (_, g, _, _, _) -> g);
        indirection = avg (fun (_, _, i, _, _) -> i);
        pad_align = avg (fun (_, _, _, p, _) -> p);
        locks = avg (fun (_, _, _, _, l) -> l);
      })
    prepped

let render_table2 rows =
  let header =
    [ "program"; "total FS reduction"; "group&transpose"; "indirection";
      "pad&align"; "locks" ]
  in
  let dash f = if abs_float f < 0.001 then "-" else Table.pct f in
  let body =
    List.map
      (fun r ->
        [ r.name;
          Table.pct r.total_reduction;
          dash r.group_transpose;
          dash r.indirection;
          dash r.pad_align;
          dash r.locks ])
      rows
  in
  Table.render ~header body

(* ------------------------------------------------------------------ *)
(* Speedups (Figure 4, Table 3)                                        *)

type series = {
  workload : string;
  version : version;
  points : (int * float) list;
}

let default_procs = [ 1; 2; 4; 8; 12; 16; 20; 24; 28; 32; 40; 48; 56 ]

(* One KSR2 run per (workload, version, nprocs), replayed from the
   (workload, nprocs) trace: the three versions differ only in layout.
   Cycle counts are memoized process-wide — Figure 4, Table 3 and the
   execution-time sweep largely ask for the same runs. *)
let cycles : (string * version * int * int, int) Memo.t =
  Memo.create ()

let cycles_table ?jobs (triples : (Workload.t * version * int) list) =
  Span.timed "cycles-table"
    ~attrs:[ ("runs", string_of_int (List.length triples)) ]
  @@ fun () ->
  let key ((w : Workload.t), version, nprocs) =
    (w.name, version, nprocs, w.default_scale)
  in
  let run ((w : Workload.t), version, nprocs) () =
    let scale = w.default_scale in
    let e = Trace_memo.get w ~nprocs ~scale in
    let plan = plan_for w version e.prog ~nprocs ~scale in
    (Sim.machine_sim ~recorded:e.recorded e.prog plan ~nprocs)
      .Sim.machine.Fs_machine.Ksr.cycles
  in
  ignore (Memo.get_all ?jobs cycles (List.map (fun t -> (key t, run t)) triples));
  fun w version nprocs ->
    let t = (w, version, nprocs) in
    Memo.get cycles (key t) (run t)

let speedups ?(procs = default_procs) ?names ?jobs () =
  Span.timed "speedups" @@ fun () ->
  let selected =
    match names with
    | None -> Workloads.all
    | Some ns -> List.map Workloads.find ns
  in
  let triples =
    List.concat_map
      (fun (w : Workload.t) ->
        (w, Workload.N, 1)
        :: List.concat_map
             (fun version -> List.map (fun p -> (w, version, p)) procs)
             w.versions)
      selected
  in
  let cycles = cycles_table ?jobs triples in
  List.concat_map
    (fun (w : Workload.t) ->
      let base = cycles w Workload.N 1 in
      List.map
        (fun version ->
          let points =
            List.map
              (fun nprocs ->
                let c = cycles w version nprocs in
                (nprocs, if c = 0 then 0.0 else float_of_int base /. float_of_int c))
              procs
          in
          { workload = w.name; version; points })
        w.versions)
    selected

let figure4 ?procs ?jobs () =
  speedups ?procs ~names:[ "raytrace"; "fmm"; "pverify" ] ?jobs ()

let render_series series =
  let buf = Buffer.create 1024 in
  let by_workload = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = Option.value (Hashtbl.find_opt by_workload s.workload) ~default:[] in
      Hashtbl.replace by_workload s.workload (s :: l))
    series;
  let names =
    List.sort_uniq compare (List.map (fun s -> s.workload) series)
  in
  List.iter
    (fun name ->
      let group = List.rev (Hashtbl.find by_workload name) in
      Buffer.add_string buf (Printf.sprintf "%s (speedup vs processors)\n" name);
      let procs = List.map fst (List.hd group).points in
      let header =
        "version" :: List.map string_of_int procs
      in
      let body =
        List.map
          (fun s ->
            Workload.version_to_string s.version
            :: List.map (fun (_, sp) -> Table.f1 sp) s.points)
          group
      in
      Buffer.add_string buf (Table.render ~header body);
      Buffer.add_char buf '\n')
    names;
  Buffer.contents buf

type table3_row = {
  name : string;
  results : (version * float * int) list;
}

let table3 ?procs ?series ?jobs () =
  Span.timed "table3" @@ fun () ->
  let series = match series with Some s -> s | None -> speedups ?procs ?jobs () in
  let names = List.map (fun (w : Workload.t) -> w.name) Workloads.all in
  List.map
    (fun name ->
      let mine = List.filter (fun s -> s.workload = name) series in
      let results =
        List.map
          (fun s ->
            let best_p, best =
              List.fold_left
                (fun (bp, bv) (p, sp) -> if sp > bv then (p, sp) else (bp, bv))
                (1, 0.0) s.points
            in
            (s.version, best, best_p))
          mine
      in
      { name; results })
    names

let render_table3 rows =
  let header = [ "program"; "original"; "compiler"; "programmer" ] in
  let cell results v =
    match List.find_opt (fun (v', _, _) -> v' = v) results with
    | Some (_, sp, at) -> Printf.sprintf "%s (%d)" (Table.f1 sp) at
    | None -> ""
  in
  let body =
    List.map
      (fun r ->
        [ r.name;
          cell r.results Workload.N;
          cell r.results Workload.C;
          cell r.results Workload.P ])
      rows
  in
  Table.render ~header body

(* ------------------------------------------------------------------ *)
(* Headline statistics                                                 *)

type stats = {
  fs_share_of_misses_128 : float;
  fs_removed_128 : float;
  other_miss_increase_128 : float;
  total_miss_reduction_64 : float;
}

let text_stats ?jobs () =
  Span.timed "stats" @@ fun () ->
  let rows128 = figure3 ~blocks:[ 128 ] ?jobs () in
  let rows64 = figure3 ~blocks:[ 64 ] ?jobs () in
  let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let fs_u = sum (fun r -> r.unopt.false_sharing) rows128 in
  let fs_c = sum (fun r -> r.compiler.false_sharing) rows128 in
  let miss_u = sum (fun r -> r.unopt.misses) rows128 in
  let other_u = sum (fun r -> r.unopt.misses - r.unopt.false_sharing) rows128 in
  let other_c =
    sum (fun r -> r.compiler.misses - r.compiler.false_sharing) rows128
  in
  let m64_u = sum (fun r -> r.unopt.misses) rows64 in
  let m64_c = sum (fun r -> r.compiler.misses) rows64 in
  {
    fs_share_of_misses_128 = pct_rate fs_u miss_u;
    fs_removed_128 = pct_rate (fs_u - fs_c) fs_u;
    other_miss_increase_128 = pct_rate (other_c - other_u) other_u;
    total_miss_reduction_64 = pct_rate (m64_u - m64_c) m64_u;
  }

let render_stats s =
  String.concat "\n"
    [ Printf.sprintf
        "false sharing share of misses at 128B blocks:  %s (paper: ~70%%)"
        (Table.pct s.fs_share_of_misses_128);
      Printf.sprintf
        "false-sharing misses removed at 128B blocks:   %s (paper: ~80%%)"
        (Table.pct s.fs_removed_128);
      Printf.sprintf
        "other-miss increase at 128B blocks:            %s (paper: ~19%%)"
        (Table.pct s.other_miss_increase_128);
      Printf.sprintf
        "total-miss reduction at 64B blocks:            %s (paper: ~49%%)"
        (Table.pct s.total_miss_reduction_64);
      "" ]

(* ------------------------------------------------------------------ *)
(* Execution-time improvements                                         *)

type exec_row = { name : string; improvement : float; at_procs : int }

let exec_time_improvements ?(procs = default_procs) ?jobs () =
  Span.timed "exec-time" @@ fun () ->
  let ws = Workloads.simulated () in
  let n_cycles =
    cycles_table ?jobs
      (List.concat_map
         (fun w -> List.map (fun p -> (w, Workload.N, p)) procs)
         ws)
  in
  (* the range where the unoptimized version still scales: processor
     counts up to the unoptimized version's best point *)
  let ranges =
    List.map
      (fun (w : Workload.t) ->
        let n_curve = List.map (fun p -> (p, n_cycles w Workload.N p)) procs in
        let best_p =
          fst
            (List.fold_left
               (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc))
               (1, max_int) n_curve)
        in
        (w, List.filter (fun (p, _) -> p <= best_p) n_curve))
      ws
  in
  let c_cycles =
    cycles_table ?jobs
      (List.concat_map
         (fun (w, in_range) ->
           List.map (fun (p, _) -> (w, Workload.C, p)) in_range)
         ranges)
  in
  List.map
    (fun ((w : Workload.t), in_range) ->
      let improvement, at_procs =
        List.fold_left
          (fun (bi, bp) (p, tn) ->
            let tc = c_cycles w Workload.C p in
            let imp = if tn = 0 then 0.0 else float_of_int (tn - tc) /. float_of_int tn in
            if imp > bi then (imp, p) else (bi, bp))
          (0.0, 1) in_range
      in
      { name = w.name; improvement; at_procs })
    ranges

let render_exec rows =
  let header = [ "program"; "max exec-time improvement"; "at P" ] in
  let body =
    List.map
      (fun r -> [ r.name; Table.pct r.improvement; string_of_int r.at_procs ])
      rows
  in
  Table.render ~header body
