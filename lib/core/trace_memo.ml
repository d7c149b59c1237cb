module Workload = Fs_workloads.Workload
module Memo = Fs_util.Memo

(* [seed] is the scheduler seed for dynamic (task-parallel) workloads:
   it changes the recorded schedule, so it is part of the trace's
   identity. *)
type key = { workload : string; nprocs : int; scale : int; seed : int option }

type entry = { prog : Fs_ir.Ast.program; recorded : Sim.recorded }

(* process-global, like the workload registry it mirrors *)
let memo : (key, entry) Memo.t = Memo.create ~capacity:128 ()

let clear () = Memo.clear memo
let stats () = Memo.stats memo

let lookup ?seed (w : Workload.t) ~nprocs ~scale =
  let k = { workload = w.Workload.name; nprocs; scale; seed } in
  let record () =
    Fs_obs.Span.timed "record"
      ~attrs:
        [ ("workload", k.workload);
          ("nprocs", string_of_int nprocs);
          ("scale", string_of_int scale) ]
    @@ fun () ->
    let prog = w.Workload.build ~nprocs ~scale in
    let sched = Option.map Fs_sched.Sched.seeded seed in
    { prog; recorded = Sim.record ?sched prog ~nprocs }
  in
  (k, record)

let get ?seed w ~nprocs ~scale =
  let k, record = lookup ?seed w ~nprocs ~scale in
  Memo.get memo k record

let get_all ?jobs ?seed configs =
  Memo.get_all ?jobs memo
    (List.map (fun (w, nprocs, scale) -> lookup ?seed w ~nprocs ~scale) configs)
