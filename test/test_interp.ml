(* Tests for the SPMD interpreter: sequential semantics, synchronization,
   determinism, error detection, and the layout-driven trace. *)

open Fs_ir
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Layout = Fs_layout.Layout
module Plan = Fs_layout.Plan
module Sink = Fs_trace.Sink
module Listener = Fs_trace.Listener

let run ?(nprocs = 1) ?(plan = []) ?(block = 64) prog ~sink =
  let layout = Layout.realize prog plan ~block in
  Tutil.run_to_sink prog ~nprocs ~layout ~sink

let run_quiet ?nprocs ?plan ?block prog = run ?nprocs ?plan ?block prog ~sink:Sink.null

let int_of v = match v with Value.Vint n -> n | Value.Vfloat _ -> Alcotest.fail "float"

let dsl_prog ?structs globals funcs =
  Validate.validate_exn (Dsl.program ~name:"t" ?structs ~globals funcs)

let test_arithmetic () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", arr int_t 8) ]
      [ fn "main" []
          [ (v "out").%(i 0) <-- ((i 7 *% i 3) +% (i 10 /% i 4));
            (v "out").%(i 1) <-- (i 17 %% i 5);
            (v "out").%(i 2) <-- min_ (i 3) (i 9);
            (v "out").%(i 3) <-- max_ (i 3) (i 9);
            (v "out").%(i 4) <-- neg (i 5);
            (v "out").%(i 5) <-- ((i 3 <% i 4) &&% (i 4 <=% i 4));
            (v "out").%(i 6) <-- not_ (i 0);
            (v "out").%(i 7) <-- ((i 1 >% i 2) ||% (i 5 ==% i 5)) ] ]
  in
  let r = run_quiet p in
  let expect = [ 23; 2; 3; 9; -5; 1; 1; 1 ] in
  List.iteri
    (fun idx e ->
      Alcotest.(check int) (Printf.sprintf "out[%d]" idx) e
        (int_of (Interp.read_global r "out" idx)))
    expect

let test_control_flow () =
  let open Dsl in
  (* iterative fibonacci via while, plus function calls with return *)
  let p =
    dsl_prog [ ("out", int_t); ("out2", int_t) ]
      [ fn "fib" [ "n" ]
          [ decl "a" (i 0); decl "b" (i 1); decl "k" (i 0);
            swhile (p "k" <% p "n")
              [ decl "t" (p "a" +% p "b");
                set "a" (p "b"); set "b" (p "t"); set "k" (p "k" +% i 1) ];
            ret (p "a") ];
        fn "main" []
          [ decl "r" (i 0);
            call_ret "r" "fib" [ i 10 ];
            (v "out") <-- p "r";
            decl "acc" (i 0);
            sfor "j" (i 0) (i 5) [ set "acc" (p "acc" +% (p "j" *% p "j")) ];
            (v "out2") <-- p "acc" ] ]
  in
  let r = run_quiet p in
  Alcotest.(check int) "fib 10" 55 (int_of (Interp.read_global r "out" 0));
  Alcotest.(check int) "sum of squares" 30 (int_of (Interp.read_global r "out2" 0))

let test_recursion () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", int_t) ]
      [ fn "fact" [ "n" ]
          [ sif (p "n" <=% i 1) [ ret (i 1) ]
              [ decl "r" (i 0);
                call_ret "r" "fact" [ p "n" -% i 1 ];
                ret (p "n" *% p "r") ] ];
        fn "main" [] [ decl "r" (i 0); call_ret "r" "fact" [ i 6 ]; (v "out") <-- p "r" ] ]
  in
  Alcotest.(check int) "6!" 720
    (int_of (Interp.read_global (run_quiet p) "out" 0))

let test_floats () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", float_t) ]
      [ fn "main" [] [ (v "out") <-- ((f 1.5 *% i 4) +% f 0.25) ] ]
  in
  match Interp.read_global (run_quiet p) "out" 0 with
  | Value.Vfloat x -> Alcotest.(check (float 1e-9)) "float math" 6.25 x
  | Value.Vint _ -> Alcotest.fail "expected float"

let test_lock_mutual_exclusion () =
  let open Dsl in
  (* read-modify-write under a lock must lose no updates despite the
     fine-grained interleaving *)
  let p =
    dsl_prog [ ("total", int_t); ("l", lock_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 50)
              [ lock (v "l"); bump (v "total") (i 1); unlock (v "l") ] ] ]
  in
  let r = run_quiet ~nprocs:8 p in
  Alcotest.(check int) "no lost updates" 400
    (int_of (Interp.read_global r "total" 0))

let test_barrier_ordering () =
  let open Dsl in
  (* values written before a barrier are visible after it *)
  let p =
    dsl_prog [ ("a", arr int_t 8); ("ok", arr int_t 8) ]
      [ fn "main" []
          [ (v "a").%(pdv) <-- (pdv +% i 1);
            barrier;
            decl "sum" (i 0);
            sfor "q" (i 0) (i 8) [ set "sum" (p "sum" +% ld (v "a").%(p "q")) ];
            (v "ok").%(pdv) <-- p "sum" ] ]
  in
  let r = run_quiet ~nprocs:8 p in
  for pid = 0 to 7 do
    Alcotest.(check int) "every proc saw all writes" 36
      (int_of (Interp.read_global r "ok" pid))
  done

let test_barrier_episodes () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", int_t) ]
      [ fn "main" [] [ barrier; sfor "k" (i 0) (i 3) [ barrier ] ] ]
  in
  let r = run_quiet ~nprocs:4 p in
  Alcotest.(check int) "episodes" 4 r.Interp.barrier_episodes

let test_deadlock_detected () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t) ]
      [ fn "main" [] [ when_ (pdv ==% i 0) [ lock (v "l"); barrier ] ] ]
  in
  (* P0 holds the lock and waits at a barrier P1 never reaches... actually
     P1 finishes, so P0's barrier releases; make P1 wait on the lock. *)
  let p2 =
    dsl_prog [ ("l", lock_t) ]
      [ fn "main" []
          [ sif (pdv ==% i 0) [ lock (v "l"); barrier ] [ lock (v "l") ] ] ]
  in
  ignore p;
  match run_quiet ~nprocs:2 p2 with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Interp.Deadlock _ -> ()

let test_runtime_errors () =
  let open Dsl in
  let expect_error name prog =
    match run_quiet prog with
    | _ -> Alcotest.fail ("expected runtime error: " ^ name)
    | exception Interp.Runtime_error _ -> ()
  in
  expect_error "out of bounds"
    (dsl_prog [ ("a", arr int_t 4) ] [ fn "main" [] [ (v "a").%(i 9) <-- i 1 ] ]);
  expect_error "negative index"
    (dsl_prog [ ("a", arr int_t 4) ] [ fn "main" [] [ (v "a").%(neg (i 1)) <-- i 1 ] ]);
  expect_error "unlock not held"
    (dsl_prog [ ("l", lock_t) ] [ fn "main" [] [ unlock (v "l") ] ]);
  expect_error "missing return"
    (dsl_prog [ ("x", int_t) ]
       [ fn "f" [] []; fn "main" [] [ decl "r" (i 0); call_ret "r" "f" [] ] ])

let test_division_by_zero () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", int_t) ] [ fn "main" [] [ (v "x") <-- (i 1 /% ld (v "x")) ] ]
  in
  match run_quiet p with
  | _ -> Alcotest.fail "expected a division-by-zero Runtime_error"
  | exception Interp.Runtime_error m ->
    Alcotest.(check string) "message" "division by zero" m

let test_trace_determinism () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 16); ("l", lock_t); ("t", int_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 10) [ (v "a").%((p "k" +% pdv) %% i 16) <-- p "k" ];
            lock (v "l"); bump (v "t") (i 1); unlock (v "l") ] ]
  in
  let capture () =
    let c = Sink.Capture.create () in
    ignore (run ~nprocs:6 p ~sink:(Sink.Capture.sink c));
    Sink.Capture.to_list c
  in
  Alcotest.(check int) "same traces" 0 (compare (capture ()) (capture ()))

let test_layout_changes_addresses_not_semantics () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 8); ("sum", int_t); ("l", lock_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 5) [ bump ((v "a").%(pdv)) (p "k") ];
            barrier;
            lock (v "l");
            bump (v "sum") (ld (v "a").%(pdv));
            unlock (v "l") ] ]
  in
  let result plan =
    int_of (Interp.read_global (run_quiet ~nprocs:8 ~plan p) "sum" 0)
  in
  let transposed = [ Plan.Group_transpose { vars = [ "a" ]; pdv_axis = 0 }; Plan.Pad_locks ] in
  Alcotest.(check int) "same result" (result []) (result transposed);
  Alcotest.(check int) "value" 80 (result transposed)

let test_indirection_extra_loads () =
  let open Dsl in
  let structs = [ { Ast.sname = "s"; fields = [ ("f", arr int_t 2) ] } ] in
  let p =
    dsl_prog ~structs [ ("n", arr (struct_t "s") 2) ]
      [ fn "main" [] [ (v "n").%(i 0).%{"f"}.%(pdv) <-- i 1 ] ]
  in
  let count plan =
    let c = Sink.Capture.create () in
    ignore (run ~nprocs:2 ~plan p ~sink:(Sink.Capture.sink c));
    Sink.Capture.length c
  in
  let direct = count [] in
  let indirect = count [ Plan.Indirect { var = "n"; fields = [ "f" ] } ] in
  (* each field access now carries one extra pointer load *)
  Alcotest.(check int) "extra loads" (direct * 2) indirect

let test_work_and_access_counters () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 4) ]
      [ fn "main" [] [ sfor "k" (i 0) (i 10) [ (v "a").%(pdv) <-- p "k" ] ] ]
  in
  let r = run_quiet ~nprocs:4 p in
  Array.iter
    (fun w -> Alcotest.(check bool) "work counted" true (w > 0))
    r.Interp.work;
  Array.iter
    (fun a -> Alcotest.(check int) "accesses per proc" 10 a)
    r.Interp.accesses

let test_nontermination_guard () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", int_t) ]
      [ fn "main" [] [ swhile (i 1) [ (v "x") <-- i 1 ] ] ]
  in
  let layout = Layout.default p ~block:64 in
  match
    Tutil.run ~max_steps:10_000 p ~nprocs:1 ~layout ~listener:Listener.null
  with
  | _ -> Alcotest.fail "expected nontermination guard"
  | exception Interp.Nontermination _ -> ()

let test_listener_events () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t); ("x", int_t) ]
      [ fn "main" []
          [ lock (v "l"); bump (v "x") (i 1); unlock (v "l"); barrier ] ]
  in
  let grants = ref 0 and waits = ref 0 and releases = ref 0 and work = ref 0 in
  let listener =
    { Listener.null with
      lock_grant = (fun ~proc:_ ~addr:_ ~from:_ -> incr grants);
      lock_wait = (fun ~proc:_ ~addr:_ -> incr waits);
      barrier_release = (fun () -> incr releases);
      work = (fun ~proc:_ ~amount -> work := !work + amount);
    }
  in
  let layout = Layout.default p ~block:64 in
  let _ = Tutil.run p ~nprocs:3 ~layout ~listener in
  Alcotest.(check int) "three grants" 3 !grants;
  Alcotest.(check bool) "some contention" true (!waits >= 1);
  Alcotest.(check int) "one release" 1 !releases;
  Alcotest.(check bool) "work reported" true (!work > 0)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "barrier ordering" `Quick test_barrier_ordering;
    Alcotest.test_case "barrier episodes" `Quick test_barrier_episodes;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
    Alcotest.test_case "layout transparency" `Quick test_layout_changes_addresses_not_semantics;
    Alcotest.test_case "indirection extra loads" `Quick test_indirection_extra_loads;
    Alcotest.test_case "work/access counters" `Quick test_work_and_access_counters;
    Alcotest.test_case "nontermination guard" `Quick test_nontermination_guard;
    Alcotest.test_case "listener events" `Quick test_listener_events ]

(* Differential testing: random arithmetic expression trees evaluated by
   the interpreter must match direct evaluation with Value.binop. *)
let expr_gen =
  let open QCheck.Gen in
  let leaf = map (fun n -> Ast.Int_lit n) (int_range (-20) 20) in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 3,
              let op =
                oneofl
                  [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Min; Ast.Max; Ast.Lt;
                    Ast.Le; Ast.Eq; Ast.Ne ]
              in
              map3
                (fun op a b -> Ast.Binop (op, a, b))
                op (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun e -> Ast.Unop (Ast.Neg, e)) (self (depth - 1))) ])
    4

let rec eval_direct (e : Ast.expr) =
  match e with
  | Ast.Int_lit n -> Value.Vint n
  | Ast.Unop (op, a) -> Value.unop op (eval_direct a)
  | Ast.Binop (op, a, b) -> Value.binop op (eval_direct a) (eval_direct b)
  | _ -> assert false

let test_differential_eval =
  QCheck.Test.make ~name:"interpreter matches direct evaluation" ~count:200
    (QCheck.make expr_gen)
    (fun e ->
      let open Dsl in
      let prog = dsl_prog [ ("out", int_t) ] [ fn "main" [] [ (v "out") <-- e ] ] in
      let r = run_quiet prog in
      Value.equal (Interp.read_global r "out" 0) (eval_direct e))

let suite = suite @ [ QCheck_alcotest.to_alcotest test_differential_eval ]

(* ------------------------------------------------------------------ *)
(* Pinned traces.  The interpreter's trace is the experiment's input, so
   any change to how it evaluates (operand order, scheduling points,
   value representation) must leave every recorded event in place.  The
   table holds (event count, CRC-32 of the packed events) per recording;
   a mismatch prints the whole measured table. *)

module Cell_trace = Fs_trace.Cell_trace
module Cell_event = Fs_trace.Cell_event
module Ws = Fs_workloads.Workloads
module W = Fs_workloads.Workload
module Sched = Fs_sched.Sched

let trace_crc t =
  let crc = ref Fs_util.Crc32.start in
  Cell_trace.iter_packed
    (fun x ->
      for k = 0 to 7 do
        crc := Fs_util.Crc32.byte !crc ((x lsr (8 * k)) land 0xff)
      done)
    t;
  Fs_util.Crc32.finish !crc

(* the work-stealing seeds the benchmark's taskbag runs use *)
let pinned_sched_seeds = [ 11; 23; 37; 53 ]
let pinned_fuzz_seed = 20240611
let pinned_fuzz_count = 50

let pinned_recordings () =
  let rec_ ?sched prog ~nprocs =
    fst (Interp.record ?sched prog ~nprocs)
  in
  let workloads =
    List.map
      (fun (w : W.t) ->
        let prog = w.build ~nprocs:w.fig3_procs ~scale:1 in
        let sched = if w.dynamic then Some (Sched.seeded 1) else None in
        (Printf.sprintf "%s/s1/p%d" w.name w.fig3_procs,
         fun () -> rec_ ?sched prog ~nprocs:w.fig3_procs))
      Ws.every
  in
  let seeded =
    List.concat_map
      (fun (w : W.t) ->
        List.map
          (fun seed ->
            let prog = w.build ~nprocs:w.fig3_procs ~scale:1 in
            (Printf.sprintf "%s/s1/p%d/seed%d" w.name w.fig3_procs seed,
             fun () -> rec_ ~sched:(Sched.seeded seed) prog ~nprocs:w.fig3_procs))
          pinned_sched_seeds)
      Ws.dynamic
  in
  let fuzz =
    QCheck.Gen.generate ~n:pinned_fuzz_count
      ~rand:(Random.State.make [| pinned_fuzz_seed |])
      Test_fuzz.gen_program
    |> List.mapi (fun k prog ->
           (Printf.sprintf "fuzz/%d" k,
            fun () -> rec_ prog ~nprocs:Test_fuzz.nprocs))
  in
  workloads @ seeded @ fuzz

let pinned_table : (string * int * int) list =
  [ ("maxflow/s1/p12", 44833, 0xada49b36);
    ("pverify/s1/p12", 25164, 0x75410a4c);
    ("topopt/s1/p9", 4980, 0xe7c8d686);
    ("fmm/s1/p12", 67458, 0xbc471bbf);
    ("radiosity/s1/p12", 24214, 0x2d8c37d3);
    ("raytrace/s1/p12", 180544, 0x97c21220);
    ("locusroute/s1/p12", 24347, 0xe7c1cc3c);
    ("mp3d/s1/p12", 12222, 0xcdb724a3);
    ("pthor/s1/p12", 12861, 0xab498d67);
    ("water/s1/p12", 50759, 0x8887a782);
    ("fib/s1/p8", 1175, 0x1ebabf2a);
    ("taskbag/s1/p8", 4650, 0xab7bba2f);
    ("stencil/s1/p8", 4127, 0x6dae399b);
    ("dstress/s1/p8", 2203, 0x69d7670d);
    ("fib/s1/p8/seed11", 1563, 0x269c4e45);
    ("fib/s1/p8/seed23", 1663, 0x55b35ee7);
    ("fib/s1/p8/seed37", 1251, 0x99953880);
    ("fib/s1/p8/seed53", 1575, 0x802c33ba);
    ("taskbag/s1/p8/seed11", 4670, 0xb7a75a35);
    ("taskbag/s1/p8/seed23", 4634, 0x3e3f49fd);
    ("taskbag/s1/p8/seed37", 4658, 0xaa9e23b1);
    ("taskbag/s1/p8/seed53", 4622, 0x302c5f24);
    ("stencil/s1/p8/seed11", 3691, 0x451a00b0);
    ("stencil/s1/p8/seed23", 4031, 0x7a911a81);
    ("stencil/s1/p8/seed37", 3975, 0x74346164);
    ("stencil/s1/p8/seed53", 4143, 0xcce6357c);
    ("dstress/s1/p8/seed11", 2035, 0x59587a90);
    ("dstress/s1/p8/seed23", 2203, 0xc6279f4a);
    ("dstress/s1/p8/seed37", 2171, 0x67094ad7);
    ("dstress/s1/p8/seed53", 2079, 0xe2556ab4);
    ("fuzz/0", 82, 0x631dea55);
    ("fuzz/1", 190, 0x870da97b);
    ("fuzz/2", 9, 0x0306047b);
    ("fuzz/3", 41, 0x2c2515bf);
    ("fuzz/4", 246, 0xbd04d234);
    ("fuzz/5", 137, 0xa2d304f1);
    ("fuzz/6", 490, 0xed4486f7);
    ("fuzz/7", 112, 0xcf56c638);
    ("fuzz/8", 299, 0x013ec50e);
    ("fuzz/9", 147, 0xa308769b);
    ("fuzz/10", 224, 0x1ce55617);
    ("fuzz/11", 305, 0x273bdace);
    ("fuzz/12", 184, 0xe0d7655e);
    ("fuzz/13", 226, 0x1a2a9f53);
    ("fuzz/14", 209, 0x5e9a1945);
    ("fuzz/15", 113, 0x44210694);
    ("fuzz/16", 33, 0xb2573ad7);
    ("fuzz/17", 162, 0x9f74ec45);
    ("fuzz/18", 615, 0xfff3908d);
    ("fuzz/19", 73, 0x58d966cd);
    ("fuzz/20", 105, 0x5a74cdfb);
    ("fuzz/21", 121, 0xeb05fc98);
    ("fuzz/22", 88, 0xeeef83cc);
    ("fuzz/23", 312, 0x5af7bf11);
    ("fuzz/24", 162, 0xb11b8500);
    ("fuzz/25", 244, 0x4cdf2429);
    ("fuzz/26", 429, 0x4b65068c);
    ("fuzz/27", 172, 0x8df8f3f0);
    ("fuzz/28", 667, 0x95652a1b);
    ("fuzz/29", 162, 0xec0dbc69);
    ("fuzz/30", 266, 0x63d2c2e3);
    ("fuzz/31", 229, 0x08fddd54);
    ("fuzz/32", 656, 0xb180d06a);
    ("fuzz/33", 82, 0x19227970);
    ("fuzz/34", 73, 0xe2598a7f);
    ("fuzz/35", 106, 0x41aaa71f);
    ("fuzz/36", 618, 0x34788fe9);
    ("fuzz/37", 600, 0x826ee623);
    ("fuzz/38", 241, 0xd3183352);
    ("fuzz/39", 185, 0xb0b4b0e7);
    ("fuzz/40", 256, 0x0516dc1b);
    ("fuzz/41", 234, 0x0228f66c);
    ("fuzz/42", 275, 0x06e164a7);
    ("fuzz/43", 171, 0x953b772f);
    ("fuzz/44", 98, 0x8837c2bc);
    ("fuzz/45", 786, 0x44a804e6);
    ("fuzz/46", 73, 0xd302f670);
    ("fuzz/47", 170, 0xff79267a);
    ("fuzz/48", 433, 0x8fd90c65);
    ("fuzz/49", 25, 0x5b2d78eb) ]

let test_pinned_traces () =
  let measured =
    List.map
      (fun (label, record) ->
        let t = record () in
        (label, Cell_trace.length t, trace_crc t))
      (pinned_recordings ())
  in
  if measured <> pinned_table then
    Alcotest.fail
      (String.concat ""
         ("recorded traces moved; measured table:\n"
          :: List.map
               (fun (l, n, c) -> Printf.sprintf "    (%S, %d, 0x%08x);\n" l n c)
               measured))

(* Operand order is part of the trace: a binary operator evaluates its
   right operand first, a store computes its cell before its value, and
   call arguments are evaluated left to right. *)
let test_operand_order () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", int_t); ("b", int_t); ("c", arr int_t 2); ("d", int_t) ]
      [ fn "f" [ "x"; "y" ] [];
        fn "main" []
          [ (v "d") <-- (ld (v "a") -% ld (v "b"));
            (v "c").%(ld (v "a")) <-- ld (v "b");
            call "f" [ ld (v "c").%(i 0); ld (v "d") ] ] ]
  in
  let trace, _ = Interp.record p ~nprocs:1 in
  let vars = Cell_trace.vars trace in
  let accesses = ref [] in
  Cell_trace.iter
    (function
      | Cell_event.Access { write; var; _ } ->
        accesses := Printf.sprintf "%s%s" (if write then "W" else "R") vars.(var)
                    :: !accesses
      | _ -> ())
    trace;
  Alcotest.(check (list string)) "access order"
    [ "Rb"; "Ra"; "Wd"; "Ra"; "Rb"; "Wc"; "Rc"; "Rd" ]
    (List.rev !accesses)

(* The step budget fires at the same work unit, so the partial trace
   recorded up to [Nontermination] has a fixed length. *)
let pinned_nontermination_events = 6208

let test_nontermination_trace_length () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", arr int_t 3); ("l", lock_t) ]
      [ fn "main" []
          [ swhile (i 1)
              [ bump ((v "x").%(pdv)) (i 1);
                lock (v "l"); bump ((v "x").%(i 0)) (i 1); unlock (v "l") ] ] ]
  in
  let trace = Cell_trace.create ~vars:(Interp.vars p) ~nprocs:3 in
  match
    Interp.run_cells ~max_steps:10_000 p ~nprocs:3
      ~push:(Cell_trace.push trace)
  with
  | _ -> Alcotest.fail "expected nontermination guard"
  | exception Interp.Nontermination _ ->
    Alcotest.(check int) "events at the guard" pinned_nontermination_events
      (Cell_trace.length trace)

(* A runtime error deep in private computation is raised where the
   switching schedule reaches it, after the other processes' events. *)
let pinned_error_events = 416

let test_error_trace_length () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", arr int_t 4) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 40)
              [ bump ((v "x").%(pdv)) (i 1);
                decl "s" (i 1);
                sfor "j" (i 0) (i 30) [ set "s" ((p "s" *% i 7) %% i 101) ];
                when_ ((pdv ==% i 2) &&% (p "k" ==% i 25))
                  [ set "s" (p "s" /% (p "s" -% p "s")) ] ] ] ]
  in
  let trace = Cell_trace.create ~vars:(Interp.vars p) ~nprocs:4 in
  match Interp.run_cells p ~nprocs:4 ~push:(Cell_trace.push trace) with
  | _ -> Alcotest.fail "expected a division-by-zero Runtime_error"
  | exception Interp.Runtime_error "division by zero" ->
    Alcotest.(check int) "events at the error" pinned_error_events
      (Cell_trace.length trace)

let suite =
  suite
  @ [ Alcotest.test_case "recorded traces are pinned" `Quick test_pinned_traces;
      Alcotest.test_case "runtime error trace length" `Quick test_error_trace_length;
      Alcotest.test_case "operand order is pinned" `Quick test_operand_order;
      Alcotest.test_case "nontermination trace length" `Quick
        test_nontermination_trace_length ]

(* Typed evaluation.  Ints stay unboxed only where the inference proves
   them; floats reach private slots, a global and a call result here,
   demoting them to the boxed path.  Whatever the mix, the final value
   and any exception must be those of the boxed [Value] semantics. *)
let mixed_expr_gen privs =
  let open QCheck.Gen in
  let leaf =
    frequency
      ([ (3, map (fun n -> Ast.Int_lit n) (int_range (-6) 6));
         (2, map (fun k -> Ast.Float_lit (float_of_int k /. 2.)) (int_range (-6) 6));
         (1, return Ast.Pdv);
         (1, return Ast.Nprocs);
         (2, oneofl [ Ast.Load (Dsl.v "g"); Ast.Load (Dsl.v "h") ]) ]
      @ if privs = [] then [] else [ (3, map (fun n -> Ast.Priv n) (oneofl privs)) ])
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 4,
              map3
                (fun op a b -> Ast.Binop (op, a, b))
                (oneofl
                   Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or;
                         Min; Max ])
                (self (depth - 1)) (self (depth - 1)) );
            (1, map2 (fun op e -> Ast.Unop (op, e)) (oneofl Ast.[ Neg; Not ]) (self (depth - 1)))
          ])
    3

(* the boxed semantics, operands right to left as the interpreter runs
   them *)
let rec eval_ref env (e : Ast.expr) =
  match e with
  | Int_lit n -> Value.Vint n
  | Float_lit x -> Value.Vfloat x
  | Pdv -> Value.Vint 0
  | Nprocs -> Value.Vint 1
  | Priv n -> List.assoc n env
  | Load lv -> List.assoc lv.base env
  | Unop (op, a) -> Value.unop op (eval_ref env a)
  | Binop (And, a, b) ->
    if Value.truthy (eval_ref env a) then Value.of_bool (Value.truthy (eval_ref env b))
    else Value.zero
  | Binop (Or, a, b) ->
    if Value.truthy (eval_ref env a) then Value.Vint 1
    else Value.of_bool (Value.truthy (eval_ref env b))
  | Binop (op, a, b) ->
    let vb = eval_ref env b in
    let va = eval_ref env a in
    Value.binop op va vb

(* OCaml's [Division_by_zero], which the reference raises, is the
   interpreter's [Runtime_error] *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception (Division_by_zero | Interp.Runtime_error "division by zero") ->
    Error "division by zero"
  | exception Value.Type_error _ -> Error "Type_error"

let test_typed_eval =
  let gen =
    let open QCheck.Gen in
    let* ea = mixed_expr_gen [] in
    let* eb = mixed_expr_gen [ "a" ] in
    let* eg = mixed_expr_gen [ "a"; "b" ] in
    let* ec = mixed_expr_gen [ "a"; "b" ] in
    let* ea2 = mixed_expr_gen [ "a"; "b"; "c" ] in
    let* e = mixed_expr_gen [ "a"; "b"; "c" ] in
    return (ea, eb, eg, ec, ea2, e)
  in
  let print (ea, eb, eg, ec, ea2, e) =
    String.concat "; " (List.map (Format.asprintf "%a" Pp.expr) [ ea; eb; eg; ec; ea2; e ])
  in
  QCheck.Test.make ~name:"typed evaluation matches boxed values" ~count:300
    (QCheck.make ~print gen)
    (fun (ea, eb, eg, ec, ea2, e) ->
      let open Dsl in
      let prog =
        dsl_prog
          [ ("g", int_t); ("h", float_t); ("out", float_t) ]
          [ fn "id" [ "x" ] [ ret (p "x") ];
            fn "main" []
              [ decl "a" ea; decl "b" eb; (v "g") <-- eg; call_ret "c" "id" [ ec ];
                set "a" ea2; (v "out") <-- e ] ]
      in
      let expected =
        outcome (fun () ->
            let env = [ ("g", Value.zero); ("h", Value.zero) ] in
            let env = ("a", eval_ref env ea) :: env in
            let env = ("b", eval_ref env eb) :: env in
            let vg = eval_ref env eg in
            let env = ("g", vg) :: List.remove_assoc "g" env in
            let env = ("c", eval_ref env ec) :: env in
            let env = ("a", eval_ref env ea2) :: List.remove_assoc "a" env in
            eval_ref env e)
      in
      let actual = outcome (fun () -> Interp.read_global (run_quiet prog) "out" 0) in
      match (expected, actual) with
      | Ok x, Ok y -> Value.equal x y
      | Error x, Error y -> x = y
      | _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest test_typed_eval ]

(* Division by a literal.  [/] and [%] by an int literal compile to a
   multiply and shift, or a shift and mask for a power of two, on their
   fast path; every program must still compute what OCaml's [/] and
   [mod] compute, fail with a division-by-zero [Runtime_error] where
   they raise [Division_by_zero], and round negative dividends as OCaml
   does.  Each case runs a tiny program over
   the operand shapes the compiler writes out: a private slot, any other
   int expression, and a literal, each divided by the literal [k]. *)

let divide_by_literal x k =
  let open Dsl in
  let x2 = neg (neg (p "x")) in
  let prog =
    dsl_prog [ ("out", arr int_t 6) ]
      [ fn "main" []
          [ decl "x" (i x);
            (v "out").%(i 0) <-- (p "x" /% i k);
            (v "out").%(i 1) <-- (p "x" %% i k);
            (v "out").%(i 2) <-- (x2 /% i k);
            (v "out").%(i 3) <-- (x2 %% i k);
            (v "out").%(i 4) <-- (i x /% i k);
            (v "out").%(i 5) <-- (i x %% i k) ] ]
  in
  let expected = outcome (fun () -> [ x / k; x mod k; x / k; x mod k; x / k; x mod k ]) in
  let actual =
    outcome (fun () ->
        let r = snd (Interp.record prog ~nprocs:1) in
        List.init 6 (fun j -> int_of (Interp.read_global r "out" j)))
  in
  expected = actual

let edge_dividends =
  let e = 1 lsl 30 in
  [ 0; 1; -1; 2; -2; 65536; 65537; -65537; e - 1; e; e + 1; -(e - 1); -e;
    -(e + 1); (1 lsl 31) + 5; max_int; min_int; max_int - 1; min_int + 1 ]

let edge_divisors =
  let e = 1 lsl 30 in
  List.init 30 (fun p -> 1 lsl p)
  @ [ 3; 7; 10; 12; 65535; 65537; e - 1; e; e + 1; 0; -1; -2; -3; -65537;
      max_int; min_int ]

let test_divide_by_literal_edges () =
  List.iter
    (fun k ->
      List.iter
        (fun x ->
          if not (divide_by_literal x k) then
            Alcotest.failf "%d / %d and %d mod %d differ from OCaml's" x k x k)
        edge_dividends)
    edge_divisors

let test_divide_by_literal =
  let gen =
    let open QCheck.Gen in
    let e = 1 lsl 30 in
    let k =
      oneof
        [ int_range 1 65537;
          map (fun p -> 1 lsl p) (int_range 0 29);
          oneofl [ e - 1; e; e + 1; 0 ];
          map (fun k -> -k) (int_range 1 65537);
          int ]
    in
    let x =
      oneof
        [ int; int_range 0 (e - 1); int_range (-e) e; oneofl edge_dividends;
          map (fun d -> e + d) (int_range (-2) 2);
          map (fun d -> -e + d) (int_range (-2) 2) ]
    in
    (* the dividends a multiply is likeliest to get wrong: remainder
       k - 1, just past the fast path's 2^30 bound *)
    let worst =
      let* k = int_range 2 (e - 1) in
      let* x = int_range e (2 * e) in
      return ((x / k * k) + k - 1, k)
    in
    oneof [ pair x k; worst ]
  in
  QCheck.Test.make ~name:"division by a literal matches OCaml's / and mod"
    ~count:500
    (QCheck.make ~print:QCheck.Print.(pair int int) gen)
    (fun (x, k) -> divide_by_literal x k)

let suite =
  suite
  @ [ Alcotest.test_case "division by a literal: powers of two and 2^30 edges"
        `Quick test_divide_by_literal_edges;
      QCheck_alcotest.to_alcotest test_divide_by_literal ]
