(* Tests for the deterministic work-stealing runtime: semantic
   correctness under stealing, seed reproducibility down to the bit,
   steal events in both trace formats, the scheduler's preconditions,
   and the static planner's designed blindness to the scheduler
   globals. *)

open Fs_ir
module Sched = Fs_sched.Sched
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Cell_trace = Fs_trace.Cell_trace
module Cell_event = Fs_trace.Cell_event
module Mpcache = Fs_cache.Mpcache
module Sim = Falseshare.Sim
module Phases = Falseshare.Phases
module W = Fs_workloads.Workload

let wl name = Fs_workloads.Workloads.find name

let record ?(seed = 42) (w : W.t) ~nprocs ~scale =
  Sim.record
    ~sched:(Sched.seeded seed)
    (w.W.build ~nprocs ~scale)
    ~nprocs

let int_of = function
  | Value.Vint n -> n
  | Value.Vfloat _ -> Alcotest.fail "expected an int"

(* the answer cannot depend on who stole what *)
let test_fib_result () =
  let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
  List.iter
    (fun (nprocs, seed) ->
      let r = (record ~seed (wl "fib") ~nprocs ~scale:2).Sim.interp in
      Alcotest.(check int)
        (Printf.sprintf "fib@%d seed %d" nprocs seed)
        (fib 9)
        (int_of (Interp.read_global r "result" 0)))
    [ (1, 7); (2, 7); (4, 7); (4, 1234567); (8, 3) ]

(* dstress counts every task exactly once, wherever it ran *)
let test_dstress_conservation () =
  List.iter
    (fun nprocs ->
      let r = (record (wl "dstress") ~nprocs ~scale:2).Sim.interp in
      Alcotest.(check int)
        (Printf.sprintf "hits sum@%d" nprocs)
        (48 * 2)
        (int_of (Interp.read_global r "result" 0)))
    [ 1; 2; 4; 8 ]

(* identical seeds: bit-identical traces, and identical cache counts
   from either recording at every block size *)
let test_same_seed_identical () =
  List.iter
    (fun (w : W.t) ->
      let nprocs = 4 and scale = 1 in
      let r1 = record ~seed:42 w ~nprocs ~scale in
      let r2 = record ~seed:42 w ~nprocs ~scale in
      Alcotest.(check bool)
        (w.W.name ^ ": same seed, same trace")
        true
        (Cell_trace.equal r1.Sim.trace r2.Sim.trace);
      let prog = w.W.build ~nprocs ~scale in
      List.iter
        (fun block ->
          let counts recorded =
            (Sim.cache_sim ~recorded prog [] ~nprocs ~block).Sim.counts
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: counts %dB" w.W.name block)
            true
            (counts r1 = counts r2))
        [ 16; 128 ])
    Fs_workloads.Workloads.dynamic

(* distinct seeds schedule differently (the whole point of seeding) *)
let test_distinct_seeds_diverge () =
  let w = wl "dstress" in
  let r1 = record ~seed:1 w ~nprocs:4 ~scale:2 in
  let r2 = record ~seed:2 w ~nprocs:4 ~scale:2 in
  Alcotest.(check bool)
    "different seeds, different traces" false
    (Cell_trace.equal r1.Sim.trace r2.Sim.trace)

let steal_stats trace =
  let steals = ref 0 in
  Cell_trace.iter
    (function
      | Cell_event.Steal { thief; victim; task } ->
        incr steals;
        Alcotest.(check bool) "thief <> victim" true (thief <> victim);
        Alcotest.(check bool) "task id sane" true (task >= 0)
      | _ -> ())
    trace;
  !steals

(* steals really happen, are tagged in the trace, and agree with the
   runtime's own counters *)
let test_steal_events () =
  let r = record (wl "dstress") ~nprocs:4 ~scale:2 in
  let steals = steal_stats r.Sim.trace in
  Alcotest.(check bool) "some steals" true (steals > 0);
  match r.Sim.interp.Interp.sched with
  | None -> Alcotest.fail "dynamic run must report scheduler stats"
  | Some s ->
    Alcotest.(check int) "trace steals = stats steals" s.Sched.steals steals;
    Alcotest.(check bool) "tasks spawned" true (s.Sched.tasks > 0);
    Alcotest.(check bool) "attempts >= steals" true
      (s.Sched.steal_attempts >= s.Sched.steals)

(* steal events survive the on-disk format *)
let test_trace_file_roundtrip () =
  let r = record (wl "fib") ~nprocs:4 ~scale:1 in
  let path = Filename.temp_file "fs_sched_test" ".fstrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cell_trace.write_file r.Sim.trace path;
      Alcotest.(check bool) "round-trip" true
        (Cell_trace.equal r.Sim.trace (Cell_trace.read_file path)))

(* running a task-parallel program without a seed is an error, never a
   silent default *)
let test_seed_required () =
  let prog = (wl "fib").W.build ~nprocs:2 ~scale:1 in
  match Interp.record prog ~nprocs:2 with
  | (_ : Cell_trace.t * Interp.result) ->
    Alcotest.fail "recorded a dynamic program without a seed"
  | exception Interp.Runtime_error msg ->
    Alcotest.(check bool) "message names the flag" true
      (Tutil.contains msg "--sched-seed")

(* spawn without the scheduler globals is a build error, pointing at
   Sched.instrument *)
let test_instrument_required () =
  let open Dsl in
  let prog =
    Validate.validate_exn
      (program ~name:"bare" ~globals:[ ("x", int_t) ]
         [ fn "task" [] [ (v "x") <-- i 1 ];
           fn "main" [] [ spawn "task" []; sync ] ])
  in
  match Interp.record ~sched:(Sched.seeded 1) prog ~nprocs:2 with
  | (_ : Cell_trace.t * Interp.result) ->
    Alcotest.fail "ran a spawn without scheduler globals"
  | exception Interp.Runtime_error msg ->
    Alcotest.(check bool) "message names Sched.instrument" true
      (Tutil.contains msg "Sched.instrument")

(* a barrier reached from a spawned task is rejected statically *)
let test_barrier_in_task_rejected () =
  let open Dsl in
  let prog =
    program ~name:"bad" ~globals:[ ("x", int_t) ]
      [ fn "leaf" [] [ barrier ];
        fn "task" [] [ call "leaf" [] ];
        fn "main" [] [ spawn "task" []; sync ] ]
  in
  match Validate.check prog with
  | Ok () -> Alcotest.fail "validated a barrier inside a spawned task"
  | Error msgs ->
    Alcotest.(check bool) "names the spawned function" true
      (List.exists (fun m -> Tutil.contains m "task") msgs)

(* instrument is idempotent and its capacity is recoverable *)
let test_instrument_shape () =
  let prog = (wl "taskbag").W.build ~nprocs:4 ~scale:1 in
  Alcotest.(check bool) "instrument idempotent" true
    (Sched.instrument ~nprocs:4 prog == prog);
  Alcotest.(check (option int))
    "capacity recovered" (Some Sched.default_cap)
    (Sched.deque_cap ~nprocs:4 prog)

(* the phase cross-check exempts the scheduler globals — their
   write-sharing is by design invisible to the static analyses — while
   still flagging the task-scattered data writes the planner missed *)
let test_phases_exemption () =
  let w = wl "dstress" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let recorded = Sim.record ~sched:(Sched.seeded 42) prog ~nprocs in
  let t = Phases.analyze ~recorded prog [] ~nprocs ~block:64 in
  List.iter
    (fun (viol : Phases.violation) ->
      Alcotest.(check bool)
        ("no __sched_ violation: " ^ viol.Phases.vvar)
        false
        (Sched.is_sched_var viol.Phases.vvar))
    t.Phases.violations;
  Alcotest.(check bool) "the stolen data writes are flagged" true
    (List.exists
       (fun (viol : Phases.violation) -> viol.Phases.vvar = "hits")
       t.Phases.violations)

let suite =
  [ Alcotest.test_case "fib result" `Quick test_fib_result;
    Alcotest.test_case "dstress conservation" `Quick test_dstress_conservation;
    Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
    Alcotest.test_case "distinct seeds diverge" `Quick
      test_distinct_seeds_diverge;
    Alcotest.test_case "steal events" `Quick test_steal_events;
    Alcotest.test_case "trace file round-trip" `Quick
      test_trace_file_roundtrip;
    Alcotest.test_case "seed required" `Quick test_seed_required;
    Alcotest.test_case "instrument required" `Quick test_instrument_required;
    Alcotest.test_case "barrier in task rejected" `Quick
      test_barrier_in_task_rejected;
    Alcotest.test_case "instrument shape" `Quick test_instrument_shape;
    Alcotest.test_case "phases exemption" `Quick test_phases_exemption ]
