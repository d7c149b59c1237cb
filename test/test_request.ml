(* Tests for the one request model the CLI and serve share: the
   defaults it fills in, the refusals it raises (each one message), the
   seed rule, and what it resolves a source to. *)

module R = Falseshare.Request
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Repair = Fs_feedback.Repair

let pverify = Ws.find "pverify"

let none =
  { R.nprocs = None; scale = None; block = None; layout = None; seed = None;
    top = None; max_iters = None }

let resolve ?(command = "sim") ?(q = none) target = R.resolve ~command target q

let tiny = "program tiny; shared int c[4]; void main() { c[pid] = c[pid] + 1; }"

let spawner =
  "program sp; shared int c[4]; void f() { c[0] = 1; } \
   void main() { spawn f(); sync; }"

let test_defaults () =
  let r = resolve (R.Workload pverify) in
  Alcotest.(check string) "name" "pverify" r.name;
  Alcotest.(check int) "nprocs" 12 r.nprocs;
  Alcotest.(check int) "block" 128 r.block;
  Alcotest.(check int) "scale" pverify.default_scale r.scale;
  Alcotest.(check int) "top" 10 r.top;
  Alcotest.(check int) "max_iters" Repair.default_options.max_iters r.max_iters;
  Alcotest.(check bool) "seed" true (r.seed = None);
  Alcotest.(check bool) "program is the workload's build" true
    (r.prog = pverify.build ~nprocs:12 ~scale:pverify.default_scale);
  List.iter
    (fun (command, v) ->
      Alcotest.(check string) command (R.layout_name v)
        (R.layout_name (resolve ~command (R.Workload pverify)).version))
    [ ("sim", W.N); ("blame", W.N); ("hotlines", W.C); ("repair", W.C);
      ("profile", W.C) ];
  (* repair tracks as many lines as the repair loop's own default, 64 *)
  List.iter
    (fun top -> Alcotest.(check int) "repair top" 64 top)
    [ Repair.default_options.top; (resolve ~command:"repair" (R.Workload pverify)).top ];
  let r =
    resolve (R.Workload pverify)
      ~q:{ none with nprocs = Some 4; scale = Some 1; block = Some 32;
                        layout = Some W.P; top = Some 3; max_iters = Some 0 }
  in
  Alcotest.(check (list int)) "sent fields kept" [ 4; 1; 32; 3; 0 ]
    [ r.nprocs; r.scale; r.block; r.top; r.max_iters ];
  Alcotest.(check string) "sent layout kept" "programmer" (R.layout_name r.version)

let test_source () =
  let r = resolve ~q:{ none with nprocs = Some 2 } (R.Source tiny) in
  Alcotest.(check string) "name" "<source>" r.name;
  Alcotest.(check int) "scale" 1 r.scale;
  Alcotest.(check (list string)) "compared under N and C"
    [ "unoptimized"; "compiler" ] (List.map fst (R.simulate ~jobs:1 r));
  (* a source that spawns tasks carries the scheduler globals *)
  let r = resolve ~q:{ none with nprocs = Some 2 } (R.Source spawner) in
  Alcotest.(check bool) "instrumented" true
    (List.mem_assoc Fs_sched.Sched.top_var r.prog.Fs_ir.Ast.globals)

(* [f] must raise [Refused] with exactly [msg], on one line *)
let refused what msg f =
  match f () with
  | _ -> Alcotest.failf "%s: not refused" what
  | exception R.Refused m ->
    Alcotest.(check string) what msg m;
    Alcotest.(check bool) (what ^ ": one line") false (String.contains m '\n')

let test_refusals () =
  let q = none in
  let w = R.Workload pverify in
  refused "near name" {|unknown workload "pverfy" (did you mean "pverify"?)|}
    (fun () -> R.workload "pverfy");
  refused "far name"
    ("unknown workload \"zzzzzz\" (known: "
     ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) Ws.every)
     ^ ")")
    (fun () -> R.workload "zzzzzz");
  List.iter
    (fun n ->
      refused (Printf.sprintf "nprocs %d" n) "nprocs must be in 1..256" (fun () ->
          resolve w ~q:{ q with nprocs = Some n }))
    [ 0; -1; 257 ];
  refused "scale 0" "scale must be at least 1" (fun () ->
      resolve w ~q:{ q with scale = Some 0 });
  List.iter
    (fun b ->
      refused (Printf.sprintf "block %d" b)
        "block must be a power of two of at least 4" (fun () ->
          resolve w ~q:{ q with block = Some b }))
    [ 0; 2; 3; 12; 100 ];
  refused "top 0" "top must be at least 1" (fun () ->
      resolve w ~q:{ q with top = Some 0 });
  refused "max_iters -1" "max_iters must be at least 0" (fun () ->
      resolve w ~q:{ q with max_iters = Some (-1) });
  refused "scale with a source" "scale applies only to a registered workload"
    (fun () -> resolve (R.Source tiny) ~q:{ q with scale = Some 2 });
  refused "no programmer layout" {|workload "maxflow" has no programmer layout|}
    (fun () ->
      resolve (R.Workload (Ws.find "maxflow")) ~q:{ q with layout = Some W.P });
  refused "source programmer layout" "a ParC source has no programmer layout"
    (fun () -> resolve (R.Source tiny) ~q:{ q with layout = Some W.P });
  (match resolve (R.Source "shared int x;") with
   | _ -> Alcotest.fail "invalid source: not refused"
   | exception R.Refused m ->
     Tutil.check_contains "invalid source" m "source does not validate: ");
  let water = R.Workload (Ws.find "water") in
  refused "programmer layout past its processor count"
    "the programmer layout of water does not fit 97 processors (regroup of \
     mol: 97 ways does not fit extent 96)"
    (fun () ->
      R.plan (resolve water ~q:{ q with nprocs = Some 97; scale = Some 1;
                                        layout = Some W.P }))

(* A task program needs a seed to be recorded, not to be resolved: the
   source of a dynamic workload prints without one. *)
let test_seed_rule () =
  let q = { none with nprocs = Some 2; scale = Some 1 } in
  let dstress = R.Workload (Ws.find "dstress") in
  let r = resolve dstress ~q in
  let msg =
    "dstress spawns tasks: its work-stealing schedule needs an explicit seed \
     (--sched-seed SEED, or \"sched_seed\" in a request body; the same seed \
     gives the same execution)"
  in
  refused "seedless sched" msg (fun () -> R.sched r);
  refused "seedless recording" msg (fun () -> R.recorded r);
  let r = resolve dstress ~q:{ q with seed = Some 7 } in
  Alcotest.(check bool) "seeded" true (R.sched r = Some (Fs_sched.Sched.seeded 7));
  Alcotest.(check bool) "a static program needs none" true
    (R.sched (resolve (R.Workload pverify) ~q) = None)

let test_program_fault () =
  let module I = Fs_interp.Interp in
  Alcotest.(check (list (option string))) "faults"
    [ Some "run-time error: x"; Some "deadlock: y"; Some "nontermination: z"; None;
      None ]
    (List.map R.program_fault
       [ I.Runtime_error "x"; I.Deadlock "y"; I.Nontermination "z"; Not_found;
         R.Refused "r" ]);
  (* the program's own faults, seen through a resolved request *)
  let fault target q =
    match R.recorded (resolve target ~q) with
    | _ -> None
    | exception e -> R.program_fault e
  in
  Alcotest.(check (option string)) "topopt at 64 processors"
    (Some "run-time error: division by zero")
    (fault (R.Workload (Ws.find "topopt"))
       { none with nprocs = Some 64; scale = Some 1 });
  Alcotest.(check (option string)) "out-of-bounds source"
    (Some "run-time error: index 10 out of bounds [0,4) on a")
    (fault
       (R.Source "program oob; shared int a[4]; void main() { a[pid + 10] = 1; }")
       { none with nprocs = Some 2 })

let suite =
  [ Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "source" `Quick test_source;
    Alcotest.test_case "refusals, one message each" `Quick test_refusals;
    Alcotest.test_case "seed rule" `Quick test_seed_rule;
    Alcotest.test_case "program faults" `Quick test_program_fault ]
