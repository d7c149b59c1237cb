(* Tests over the benchmark suite: every program builds and validates,
   runs to completion at several processor counts, computes the same
   result under every layout (transformations must be semantically
   transparent), and responds to its compiler plan with a large
   false-sharing reduction. *)

module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Layout = Fs_layout.Layout
module Plan = Fs_layout.Plan
module C = Fs_cache.Mpcache
module T = Fs_transform.Transform

let all = Ws.all

let checksum_global (w : W.t) =
  (* every benchmark ends by computing a checksum-like global *)
  match w.name with "topopt" | "mp3d" | "fmm" | "radiosity" | "raytrace"
                  | "locusroute" | "pthor" | "water" -> "checksum"
  | "maxflow" -> "result"
  | "pverify" -> "mismatch"
  | other -> Alcotest.fail ("unknown workload " ^ other)

let run_result (w : W.t) ~nprocs ~plan =
  let prog = w.build ~nprocs ~scale:1 in
  let layout = Layout.realize prog plan ~block:64 in
  let r = Tutil.run_to_sink prog ~nprocs ~layout ~sink:Fs_trace.Sink.null in
  Interp.read_global r (checksum_global w) 0

let test_builds_and_validates () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun scale -> ignore (w.build ~nprocs ~scale))
            [ 1; 2 ])
        [ 1; 2; 9; 12; 56 ])
    all

let test_runs_to_completion () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun nprocs -> ignore (run_result w ~nprocs ~plan:[]))
        [ 1; 3; 8 ])
    all

let test_deterministic_results () =
  List.iter
    (fun (w : W.t) ->
      let a = run_result w ~nprocs:4 ~plan:[] in
      let b = run_result w ~nprocs:4 ~plan:[] in
      Alcotest.(check bool) (w.name ^ " deterministic") true (Value.equal a b))
    all

let test_layout_transparency () =
  (* the compiler and programmer transformations change only addresses,
     never program results *)
  List.iter
    (fun (w : W.t) ->
      let nprocs = 6 in
      let prog = w.build ~nprocs ~scale:1 in
      let base = run_result w ~nprocs ~plan:[] in
      let cplan = (T.plan prog ~nprocs).T.plan in
      Alcotest.(check bool)
        (w.name ^ ": compiler layout preserves the result")
        true
        (Value.equal base (run_result w ~nprocs ~plan:cplan));
      match w.programmer_plan with
      | None -> ()
      | Some f ->
        Alcotest.(check bool)
          (w.name ^ ": programmer layout preserves the result")
          true
          (Value.equal base (run_result w ~nprocs ~plan:(f ~nprocs ~scale:1))))
    all

let fs_counts (w : W.t) ~nprocs ~plan =
  let prog = w.build ~nprocs ~scale:w.default_scale in
  let cache = C.create (C.default_config ~nprocs ~block:128) in
  let layout = Layout.realize prog plan ~block:128 in
  let _ = Tutil.run_to_sink prog ~nprocs ~layout ~sink:(C.sink cache) in
  C.counts cache

let test_compiler_reduces_false_sharing () =
  (* the headline claim, per benchmark with an unoptimized version: the
     compiler plan removes most false-sharing misses *)
  List.iter
    (fun (w : W.t) ->
      let nprocs = w.fig3_procs in
      let prog = w.build ~nprocs ~scale:w.default_scale in
      let cplan = (T.plan prog ~nprocs).T.plan in
      let n = fs_counts w ~nprocs ~plan:[] in
      let c = fs_counts w ~nprocs ~plan:cplan in
      let reduction =
        1.0 -. (float_of_int c.C.false_sh /. float_of_int (max 1 n.C.false_sh))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: FS reduced by %.0f%%" w.name (100.0 *. reduction))
        true
        (reduction > 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "%s: total misses do not explode" w.name)
        true
        (C.misses c < 2 * C.misses n))
    (Ws.simulated ())

let test_unoptimized_has_false_sharing () =
  (* each simulated benchmark actually produces the pathology under study *)
  List.iter
    (fun (w : W.t) ->
      let n = fs_counts w ~nprocs:w.fig3_procs ~plan:[] in
      let share = float_of_int n.C.false_sh /. float_of_int (max 1 (C.misses n)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: FS is the dominant miss type (%.0f%%)" w.name
           (100.0 *. share))
        true (share > 0.4))
    (Ws.simulated ())

let test_compiler_beats_or_matches_programmer () =
  (* Section 5: the compiler-directed transformations always outperformed
     programmer efforts (here: on false-sharing misses, with a little slack
     for simulator noise) *)
  List.iter
    (fun (w : W.t) ->
      match w.programmer_plan with
      | None -> ()
      | Some f ->
        let nprocs = w.fig3_procs in
        let prog = w.build ~nprocs ~scale:w.default_scale in
        let cplan = (T.plan prog ~nprocs).T.plan in
        let c = fs_counts w ~nprocs ~plan:cplan in
        let p = fs_counts w ~nprocs ~plan:(f ~nprocs ~scale:w.default_scale) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: compiler FS (%d) <= programmer FS (%d)" w.name
             c.C.false_sh p.C.false_sh)
          true
          (c.C.false_sh <= p.C.false_sh + (p.C.false_sh / 10) + 5))
    all

let test_registry () =
  Alcotest.(check int) "ten benchmarks" 10 (List.length all);
  Alcotest.(check int) "six simulated" 6 (List.length (Ws.simulated ()));
  Alcotest.(check string) "find" "fmm" (Ws.find "fmm").W.name;
  Alcotest.(check bool) "find unknown" true
    (match Ws.find "nope" with _ -> false | exception Not_found -> true);
  List.iter
    (fun (w : W.t) ->
      Alcotest.(check bool) (w.name ^ " has P plan iff listed") true
        (List.mem W.P w.versions = Option.is_some w.programmer_plan))
    all

let test_table1_metadata () =
  (* the suite mirrors Table 1 *)
  let by_name n = Ws.find n in
  Alcotest.(check bool) "maxflow has no programmer version" true
    ((by_name "maxflow").versions = [ W.N; W.C ]);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " N/C/P") true
        ((by_name n).versions = [ W.N; W.C; W.P ]))
    [ "pverify"; "topopt"; "fmm"; "radiosity"; "raytrace" ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " C/P only") true
        ((by_name n).versions = [ W.C; W.P ]))
    [ "locusroute"; "mp3d"; "pthor"; "water" ];
  Alcotest.(check int) "topopt runs on 9 procs in fig 3" 9
    (by_name "topopt").W.fig3_procs

let suite =
  [ Alcotest.test_case "builds and validates" `Quick test_builds_and_validates;
    Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
    Alcotest.test_case "deterministic results" `Quick test_deterministic_results;
    Alcotest.test_case "layout transparency" `Slow test_layout_transparency;
    Alcotest.test_case "compiler reduces FS" `Slow test_compiler_reduces_false_sharing;
    Alcotest.test_case "unoptimized has FS" `Slow test_unoptimized_has_false_sharing;
    Alcotest.test_case "compiler >= programmer" `Slow test_compiler_beats_or_matches_programmer;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "table 1 metadata" `Quick test_table1_metadata ]
