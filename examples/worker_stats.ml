(* A histogram service: worker processes classify records into buckets and
   keep per-worker statistics embedded in the bucket records — the Pverify
   pattern (per-process fields inside shared records), which group &
   transpose cannot fix and indirection can.

   The example sweeps processor counts on the KSR2 model and prints the
   speedup of the unoptimized, compiler-transformed and hand-padded
   layouts side by side.

   Run with:  dune exec examples/worker_stats.exe *)

open Fs_ir.Dsl
module T = Fs_transform.Transform
module Sim = Falseshare.Sim
module Plan = Fs_layout.Plan

let buckets = 24
let records = 480

let build ~nprocs =
  let bucket =
    { Fs_ir.Ast.sname = "bucket";
      fields =
        [ ("lo", int_t);
          ("hi", int_t);
          ("hits", arr int_t nprocs);    (* per-worker! *)
          ("sum", arr int_t nprocs) ] }
  in
  Fs_ir.Validate.validate_exn
    (program ~name:"worker_stats" ~structs:[ bucket ]
       ~globals:[ ("bkt", arr (struct_t "bucket") buckets); ("out", int_t); ("l", lock_t) ]
       [ fn "main" []
           ([ when_ (pdv ==% i 0)
                [ sfor "b" (i 0) (i buckets)
                    [ (v "bkt").%(p "b").%{"lo"} <-- (p "b" *% i 100);
                      (v "bkt").%(p "b").%{"hi"} <-- ((p "b" +% i 1) *% i 100) ] ];
              barrier;
              decl "s" (i (12345));
              sfor "k" (i 0) (i (records / 1))
                [ set "s" (((p "s" *% i 1103515245) +% i 12345) %% i 1073741824);
                  when_ ((p "k" %% i nprocs) ==% pdv)
                    [ decl "b" (p "s" %% i buckets);
                      bump ((v "bkt").%(p "b").%{"hits"}.%(pdv)) (i 1);
                      bump ((v "bkt").%(p "b").%{"sum"}.%(pdv)) (p "s" %% i 97) ] ];
              barrier;
              lock (v "l");
              decl "mine" (i 0);
              sfor "b" (i 0) (i buckets)
                [ set "mine" (p "mine" +% ld (v "bkt").%(p "b").%{"hits"}.%(pdv)) ];
              bump (v "out") (p "mine");
              unlock (v "l") ])
       ])

let () =
  print_endline "per-worker statistics embedded in shared bucket records";
  print_endline "(speedup relative to the unoptimized uniprocessor run)\n";
  let base =
    let prog = build ~nprocs:1 in
    let recorded = Sim.record prog ~nprocs:1 in
    (Sim.machine_sim ~recorded prog [] ~nprocs:1).Sim.machine.Fs_machine.Ksr.cycles
  in
  Printf.printf "%6s %12s %12s %12s\n" "procs" "unoptimized" "compiler" "hand-padded";
  List.iter
    (fun nprocs ->
      let prog = build ~nprocs in
      let recorded = Sim.record prog ~nprocs in
      let speedup plan =
        let c =
          (Sim.machine_sim ~recorded prog plan ~nprocs)
            .Sim.machine.Fs_machine.Ksr.cycles
        in
        float_of_int base /. float_of_int c
      in
      let cplan = if nprocs = 1 then [] else (T.plan prog ~nprocs).T.plan in
      let hand =
        (* padding whole records: the natural manual fix, which still leaves
           the per-worker arrays falsely shared inside each record *)
        if nprocs = 1 then []
        else [ Plan.Pad_align { var = "bkt"; element = true }; Plan.Pad_locks ]
      in
      Printf.printf "%6d %12.1f %12.1f %12.1f\n" nprocs (speedup [])
        (speedup cplan) (speedup hand))
    [ 1; 2; 4; 8; 16; 32 ];
  let prog = build ~nprocs:8 in
  Format.printf "@.compiler plan at P=8: %a@." Plan.pp (T.plan prog ~nprocs:8).T.plan
