(* Tests for the KSR2-style timing model. *)

open Fs_ir
module Ksr = Fs_machine.Ksr
module Layout = Fs_layout.Layout
module Interp = Fs_interp.Interp
module Plan = Fs_layout.Plan

let run ?config ?(plan = []) prog ~nprocs =
  let config = match config with Some c -> c | None -> Ksr.default_config ~nprocs in
  let layout = Layout.realize prog plan ~block:config.Ksr.block in
  let m = Ksr.create config in
  let _ = Tutil.run prog ~nprocs ~layout ~listener:(Ksr.listener m) in
  Ksr.finish m

let dsl_prog globals funcs =
  Validate.validate_exn (Dsl.program ~name:"t" ~globals funcs)

let compute_prog =
  let open Dsl in
  dsl_prog [ ("out", arr int_t 64) ]
    [ fn "main" []
        [ decl "acc" (i 0);
          sfor "k" (i 0) (i 2000) [ set "acc" ((p "acc" +% p "k") %% i 9973) ];
          (v "out").%(pdv %% i 64) <-- p "acc" ] ]

let test_deterministic () =
  let a = run compute_prog ~nprocs:4 and b = run compute_prog ~nprocs:4 in
  Alcotest.(check int) "same cycles" a.Ksr.cycles b.Ksr.cycles

let test_compute_scales () =
  (* pure per-process computation scales nearly linearly *)
  let t1 = (run compute_prog ~nprocs:1).Ksr.cycles in
  let t8 = (run compute_prog ~nprocs:8).Ksr.cycles in
  let speedup = float_of_int t1 /. float_of_int t8 in
  Alcotest.(check bool)
    (Printf.sprintf "near-linear (got %.2f)" speedup)
    true (speedup > 0.9)
  (* each process runs the same loop here, so the parallel run does P times
     the work in roughly the serial time: the point is that no artificial
     bottleneck appears *)

let fs_prog =
  (* heavy false sharing: everyone hammers one block *)
  let open Dsl in
  dsl_prog [ ("hot", arr int_t 64) ]
    [ fn "main" []
        [ sfor "k" (i 0) (i 200) [ bump ((v "hot").%(pdv)) (i 1) ] ] ]

let test_false_sharing_costs () =
  (* the same program, same references, transformed layout: much cheaper *)
  let n = (run fs_prog ~nprocs:8).Ksr.cycles in
  let c =
    (run fs_prog ~nprocs:8
       ~plan:[ Plan.Group_transpose { vars = [ "hot" ]; pdv_axis = 0 } ])
      .Ksr.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "transformed at least 3x cheaper (N=%d C=%d)" n c)
    true
    (n > 3 * c)

let test_mem_stall_attribution () =
  let r = run fs_prog ~nprocs:8 in
  let stall = Array.fold_left ( + ) 0 r.Ksr.mem_stall in
  Alcotest.(check bool) "stalls recorded" true (stall > 0);
  Alcotest.(check bool) "misses recorded" true
    (Fs_cache.Mpcache.misses r.Ksr.cache > 0)

let barrier_prog =
  let open Dsl in
  dsl_prog [ ("x", int_t) ]
    [ fn "main" [] [ sfor "k" (i 0) (i 10) [ barrier ] ] ]

let test_barrier_cost_grows_with_procs () =
  let t2 = (run barrier_prog ~nprocs:2).Ksr.cycles in
  let t32 = (run barrier_prog ~nprocs:32).Ksr.cycles in
  Alcotest.(check bool) "barriers dearer on more processors" true (t32 > t2)

let test_clock_alignment_at_barriers () =
  (* after a barrier-terminated program every participant's clock is equal *)
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 8) ]
      [ fn "main" []
          [ when_ (pdv ==% i 0) [ sfor "k" (i 0) (i 500) [ (v "a").%(i 0) <-- p "k" ] ];
            barrier ] ]
  in
  let r = run p ~nprocs:4 in
  Array.iter
    (fun c -> Alcotest.(check int) "aligned" r.Ksr.per_proc.(0) c)
    r.Ksr.per_proc

let test_lock_handoff_serializes () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t); ("x", int_t) ]
      [ fn "main" []
          [ lock (v "l");
            sfor "k" (i 0) (i 300) [ bump (v "x") (i 1) ];
            unlock (v "l") ] ]
  in
  (* the critical sections execute one after another: the 8-process run
     costs roughly 8 serial sections, not one *)
  let t1 = (run p ~nprocs:1).Ksr.cycles in
  let t8 = (run p ~nprocs:8).Ksr.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "serialized (t1=%d t8=%d)" t1 t8)
    true
    (t8 > 5 * t1)

let test_cross_ring_latency () =
  (* a 33rd processor sits on the second ring: fetching data owned by
     processor 0 is dearer for it than for a same-ring processor *)
  let cfg = Ksr.default_config ~nprocs:34 in
  Alcotest.(check bool) "config sane" true
    (cfg.Ksr.cross_ring_latency > cfg.Ksr.same_ring_latency)

let suite =
  [ Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "compute scales" `Quick test_compute_scales;
    Alcotest.test_case "false sharing costs" `Quick test_false_sharing_costs;
    Alcotest.test_case "mem stall attribution" `Quick test_mem_stall_attribution;
    Alcotest.test_case "barrier cost grows" `Quick test_barrier_cost_grows_with_procs;
    Alcotest.test_case "clock alignment" `Quick test_clock_alignment_at_barriers;
    Alcotest.test_case "lock handoff serializes" `Quick test_lock_handoff_serializes;
    Alcotest.test_case "cross ring config" `Quick test_cross_ring_latency ]
