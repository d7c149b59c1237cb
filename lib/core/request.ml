module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Span = Fs_obs.Span
module Interp = Fs_interp.Interp

exception Refused of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refused m)) fmt

type version = W.version

let workload name =
  match Ws.find name with
  | w -> w
  | exception Not_found ->
    let names = List.map (fun (w : W.t) -> w.name) Ws.every in
    let hint =
      match Fs_util.Strdist.suggest name names with
      | [] -> "known: " ^ String.concat ", " names
      | near ->
        Printf.sprintf "did you mean %s?"
          (String.concat " or " (List.map (Printf.sprintf "%S") near))
    in
    refuse "unknown workload %S (%s)" name hint

type target = Workload of W.t | Source of string

type query = {
  nprocs : int option;
  scale : int option;
  block : int option;
  layout : version option;
  seed : int option;
  top : int option;
  max_iters : int option;
}

type t = {
  workload : W.t option;
  name : string;
  prog : Fs_ir.Ast.program;
  nprocs : int;
  scale : int;
  block : int;
  version : version;
  seed : int option;
  top : int;
  max_iters : int;
}

let default_nprocs = 12
let default_block = 128
let default_max_iters = 5

let default_layout = function
  | "hotlines" | "repair" | "profile" -> W.C
  | _ -> W.N

let default_top = function "repair" -> 64 | _ -> 10

let resolve ~command target (q : query) =
  let nprocs = Option.value q.nprocs ~default:default_nprocs in
  let max_nprocs = Fs_trace.Cell_event.max_proc + 1 in
  if nprocs < 1 || nprocs > max_nprocs then refuse "nprocs must be in 1..%d" max_nprocs;
  if Option.value q.scale ~default:1 < 1 then refuse "scale must be at least 1";
  let block = Option.value q.block ~default:default_block in
  if block < Fs_ir.Ast.word_size || not (Fs_util.Align.is_power_of_two block)
  then refuse "block must be a power of two of at least %d" Fs_ir.Ast.word_size;
  let top = Option.value q.top ~default:(default_top command) in
  if top < 1 then refuse "top must be at least 1";
  let max_iters = Option.value q.max_iters ~default:default_max_iters in
  if max_iters < 0 then refuse "max_iters must be at least 0";
  let version = Option.value q.layout ~default:(default_layout command) in
  let workload, name, prog, scale =
    match target with
    | Workload w ->
      if version = W.P && not (List.mem W.P w.versions) then
        refuse "workload %S has no programmer layout" w.name;
      let scale = Option.value q.scale ~default:w.default_scale in
      (Some w, w.name, Span.timed "build" (fun () -> w.build ~nprocs ~scale), scale)
    | Source src ->
      (* the source is built as sent: a scale would only split one
         program's results across several store entries *)
      if q.scale <> None then refuse "scale applies only to a registered workload";
      if version = W.P then refuse "a ParC source has no programmer layout";
      (match Fs_parc.Parser.parse_and_validate src with
       | Ok prog ->
         (* the scheduler globals are grafted onto every source, idle
            unless it spawns tasks, as the dynamic workloads' builders do *)
         (None, "<source>", Fs_sched.Sched.instrument ~nprocs prog, 1)
       | Error errs -> refuse "source does not validate: %s" (String.concat "; " errs))
  in
  { workload; name; prog; nprocs; scale; block; version; seed = q.seed; top;
    max_iters }

let sched r =
  match r.seed with
  | Some s -> Some (Fs_sched.Sched.seeded s)
  | None when not (Fs_sched.Sched.uses_tasks r.prog) -> None
  | None ->
    refuse
      "%s spawns tasks: its work-stealing schedule needs an explicit seed \
       (--sched-seed SEED, or \"sched_seed\" in a request body; the same \
       seed gives the same execution)"
      r.name

let plan_of r v =
  match r.workload with
  | Some w when v = W.P -> (
    (* hand-written for the paper's processor counts: it may not fit *)
    let plan = Experiments.plan_for w v r.prog ~nprocs:r.nprocs ~scale:r.scale in
    match Fs_layout.Plan.validate r.prog plan with
    | () -> plan
    | exception Fs_layout.Plan.Plan_error m ->
      refuse "the programmer layout of %s does not fit %d processors (%s)" w.name
        r.nprocs m)
  | Some w -> Experiments.plan_for w v r.prog ~nprocs:r.nprocs ~scale:r.scale
  | None when v = W.C -> Sim.compiler_plan r.prog ~nprocs:r.nprocs
  | None -> Fs_layout.Plan.empty

let plan r = Span.timed "plan" (fun () -> plan_of r r.version)

let layout_name = function
  | W.N -> "unoptimized"
  | W.C -> "compiler"
  | W.P -> "programmer"

let layouts = List.map (fun v -> (layout_name v, v)) W.[ N; C; P ]

let layout_of_name l =
  match List.assoc_opt l layouts with
  | Some v -> v
  | None -> refuse "unknown layout %S (expected unoptimized, compiler, or programmer)" l

let recorded r =
  let sched = sched r in
  match r.workload with
  | Some w ->
    Span.timed "memo" ~attrs:[ ("workload", w.name) ] (fun () ->
        (Trace_memo.get ?seed:r.seed w ~nprocs:r.nprocs ~scale:r.scale).Trace_memo.recorded)
  | None -> Span.timed "record" (fun () -> Sim.record ?sched r.prog ~nprocs:r.nprocs)

type 'a analysis =
  recorded:Sim.recorded -> Fs_ir.Ast.program -> Fs_layout.Plan.t -> nprocs:int -> block:int -> 'a

let replay r f =
  let plan = plan r in
  let recorded = recorded r in
  Span.timed "replay" (fun () ->
      f ~recorded r.prog plan ~nprocs:r.nprocs ~block:r.block)

let simulate ~jobs r =
  let versions =
    match r.workload with
    | Some w when List.mem W.N w.versions -> w.versions
    | Some w -> W.N :: w.versions
    | None -> [ W.N; W.C ]
  in
  let versions =
    Span.timed "plan" (fun () -> List.map (fun v -> (layout_name v, plan_of r v)) versions)
  in
  let recorded = recorded r in
  Span.timed "replay"
    ~attrs:[ ("versions", string_of_int (List.length versions)) ]
    (fun () ->
      Fs_util.Par.map ~jobs
        (fun (name, plan) ->
          (name, Sim.cache_sim ~recorded r.prog plan ~nprocs:r.nprocs ~block:r.block))
        versions)

let sweep ~jobs ~recorded prog plan ~nprocs ~block:_ =
  Fs_util.Par.map_with_stats ~jobs
    (fun block -> (block, (Sim.cache_sim ~recorded prog plan ~nprocs ~block).Sim.counts))
    [ 8; 16; 32; 64; 128; 256 ]

let program_fault = function
  | Interp.Runtime_error m -> Some ("run-time error: " ^ m)
  | Interp.Deadlock m -> Some ("deadlock: " ^ m)
  | Interp.Nontermination m -> Some ("nontermination: " ^ m)
  | _ -> None
