(* Quickstart: write a small explicitly parallel program, let the compiler
   find its false sharing, and measure the difference.

   Run with:  dune exec examples/quickstart.exe *)

open Fs_ir.Dsl
module T = Fs_transform.Transform
module Sim = Falseshare.Sim
module C = Fs_cache.Mpcache

(* Eight processes each increment their own counter half a thousand times.
   The counters are adjacent in memory: every increment invalidates every
   other process's cache block.  This is the textbook false-sharing bug. *)
let prog =
  Fs_ir.Validate.validate_exn
    (program ~name:"quickstart"
       ~globals:[ ("counter", arr int_t 8); ("total", int_t); ("l", lock_t) ]
       [ fn "main" []
           [ sfor "k" (i 0) (i 500) [ bump ((v "counter").%(pdv)) (i 1) ];
             barrier;
             lock (v "l");
             bump (v "total") (ld (v "counter").%(pdv));
             unlock (v "l") ] ])

let nprocs = 8
let block = 128

let () =
  (* 1. What does the program look like? *)
  print_endline "--- the program ---";
  print_string (Fs_ir.Pp.program_to_string prog);

  (* 2. Run the compile-time analysis and read its decisions. *)
  let report = T.plan prog ~nprocs in
  Format.printf "@.--- compiler report ---@.%a@." T.pp_report report;

  (* 3. Interpret once, then replay the recording under both layouts on
     the multiprocessor cache. *)
  let recorded = Sim.record prog ~nprocs in
  let show name plan =
    let r = Sim.cache_sim ~recorded prog plan ~nprocs ~block in
    Printf.printf "%-12s misses=%5d  false-sharing=%5d  miss rate=%s\n" name
      (C.misses r.Sim.counts) r.Sim.counts.C.false_sh
      (Fs_util.Table.pct (C.miss_rate r.Sim.counts))
  in
  print_endline "--- simulation (128-byte blocks, 8 processors) ---";
  show "unoptimized" [];
  show "transformed" report.T.plan;

  (* 4. And on the KSR2 timing model. *)
  let cycles plan =
    (Sim.machine_sim ~recorded prog plan ~nprocs).Sim.machine.Fs_machine.Ksr.cycles
  in
  let n = cycles [] and c = cycles report.T.plan in
  Printf.printf "--- execution time ---\nunoptimized %d cycles, transformed %d cycles (%.1fx)\n"
    n c (float_of_int n /. float_of_int c)
