(* A dynamic task queue: tasks are handed out at run time, so no static
   index tells the compiler which process touches which task — yet each
   process writes slot [task*P + pid], and the congruence analysis still
   proves the slots per-process and regroups them (the Radiosity pattern).
   The queue lock also sits right next to the queue head, the classic
   co-allocation mistake lock padding repairs.

   Run with:  dune exec examples/task_queue.exe *)

open Fs_ir.Dsl
module T = Fs_transform.Transform
module Sim = Falseshare.Sim
module C = Fs_cache.Mpcache

let tasks = 96

let build ~nprocs =
  Fs_ir.Validate.validate_exn
    (program ~name:"task_queue"
       ~globals:
         [ ("result", arr int_t (tasks * nprocs));
           ("qhead", int_t);
           ("qlock", lock_t);
           ("done_", int_t);
         ]
       [ fn "main" []
           [ sfor "round" (i 0) (i 5)
               [ when_ (pdv ==% i 0) [ (v "qhead") <-- i 0 ];
                 barrier;
                 decl "more" (i 1);
                 swhile (p "more")
                   [ lock (v "qlock");
                     decl "t" (ld (v "qhead"));
                     sif (p "t" <% i tasks)
                       [ (v "qhead") <-- (p "t" +% i 1) ]
                       [ set "more" (i 0) ];
                     unlock (v "qlock");
                     when_ (p "more")
                       [ (* work on task t, accumulating into this
                            process's slot for the task *)
                         decl "acc" (i 0);
                         sfor "j" (i 0) (i 40)
                           [ set "acc" ((p "acc" +% (p "t" *% p "j")) %% i 7919) ];
                         bump ((v "result").%((p "t" *% i nprocs) +% pdv)) (p "acc") ] ];
                 barrier ];
             when_ (pdv ==% i 0) [ (v "done_") <-- i 1 ] ] ])

let () =
  let nprocs = 12 in
  let prog = build ~nprocs in
  let report = T.plan prog ~nprocs in
  Format.printf
    "dynamic task distribution: the analysis sees result[t*P + pid] with t \
     unknown,@.but the congruence domain still proves the slots disjoint per \
     process.@.@.plan: %a@.@."
    Fs_layout.Plan.pp report.T.plan;
  List.iter
    (fun (e : T.entry) ->
      if e.T.key.Fs_analysis.Summary.var = "result" then
        Format.printf "result: per-process writes = %b (%s)@.@."
          e.T.per_process_writes e.T.reason)
    report.T.entries;
  let recorded = Sim.record prog ~nprocs in
  let show name plan =
    let r = Sim.cache_sim ~recorded prog plan ~nprocs ~block:128 in
    Printf.printf "%-12s misses=%5d  false-sharing=%5d\n" name
      (C.misses r.Sim.counts) r.Sim.counts.C.false_sh
  in
  show "unoptimized" [];
  show "transformed" report.T.plan
