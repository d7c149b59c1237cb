(* Tests for the profile-guided repair loop: candidate extraction from
   synthetic hot-line reports, fixpoint termination and monotone
   non-regression over the whole suite, the Topopt acceptance bar, and
   semantic transparency of the refined (F) layouts. *)

open Fs_ir
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Plan = Fs_layout.Plan
module Layout = Fs_layout.Layout
module C = Fs_cache.Mpcache
module T = Fs_transform.Transform
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Sim = Falseshare.Sim
module H = Falseshare.Hotlines
module R = Fs_feedback.Repair

(* ------------------------------------------------------------------ *)
(* Candidate extraction from synthetic hot-line reports               *)

let block = 64

let mkline ?(reads = 40) ?(writes = 40) ?(writers = 2) blk ww =
  let written = Array.fold_left (fun n m -> if m <> [] then n + 1 else n) 0 ww in
  {
    C.line_block = blk;
    line_reads = reads;
    line_writes = writes;
    writers;
    readers = writers;
    migrations = 10;
    pingpong = 5;
    max_run = 4;
    max_inval_chain = 3;
    written_words = written;
    shared_words = 0;
    word_writers = ww;
  }

let cnt fs =
  let c = C.zero_counts () in
  c.C.false_sh <- fs;
  c

let hot ?(verdict = H.Falsely_shared) ~owner ~fs line =
  { H.line; counts = cnt fs; owner; cell_lo = 0; cell_hi = 0; score = 0.;
    verdict; fix = "" }

let report ~nprocs hots =
  { H.nprocs; block; total = cnt 0; hot = hots; dropped = 0 }

let words masks =
  (* a word_writers array for one [block]-byte line, from a bit mask of
     writers per word *)
  let writers m = List.filter (fun p -> m land (1 lsl p) <> 0) [ 0; 1; 2; 3 ] in
  Array.init (block / Ast.word_size) (fun w ->
      if w < Array.length masks then writers masks.(w) else [])

let kind_in cands pred = List.exists (fun (c : R.candidate) -> pred c) cands

let test_extract_busy_scalars () =
  let prog =
    let open Dsl in
    Validate.validate_exn
      (program ~name:"scal" ~structs:[]
         ~globals:[ ("a", int_t); ("b", int_t); ("c", int_t) ]
         [ fn "main" [] [ (v "a") <-- i 1 ] ])
  in
  (* one falsely shared line holding all three scalars *)
  let h =
    report ~nprocs:4
      [ hot ~owner:"a" ~fs:30 (mkline 0 (words [| 1; 2; 4 |])) ]
  in
  match R.extract prog [] h with
  | [ c ] ->
    (match c.R.kind with
     | R.Pad_hot_scalars vars ->
       Alcotest.(check (list string)) "pads all co-allocated scalars"
         [ "a"; "b"; "c" ] vars;
       Alcotest.(check int) "est covers the line" 30 c.R.est_fs;
       Alcotest.(check int) "three pad actions" 3 (List.length c.R.adds)
     | _ -> Alcotest.fail ("unexpected kind: " ^ R.candidate_label c))
  | cands ->
    Alcotest.fail (Printf.sprintf "expected one candidate, got %d"
                     (List.length cands))

let test_extract_partition () =
  let prog =
    let open Dsl in
    Validate.validate_exn
      (program ~name:"part" ~structs:[] ~globals:[ ("arr", arr int_t 16) ]
         [ fn "main" [] [ (v "arr").%(i 0) <-- i 1 ] ])
  in
  (* four contiguous partitions of four cells each, one writer per
     partition: the chunked-regroup inference *)
  let ww = words [| 1; 1; 1; 1; 2; 2; 2; 2; 4; 4; 4; 4; 8; 8; 8; 8 |] in
  let h = report ~nprocs:4 [ hot ~owner:"arr" ~fs:50 (mkline 0 ww) ] in
  let cands = R.extract prog [] h in
  Alcotest.(check bool) "partition candidate present" true
    (kind_in cands (fun c ->
         c.R.kind = R.Partition_array { ways = 4; chunked = true }
         && c.R.adds = [ Plan.Regroup { var = "arr"; ways = 4; chunked = true } ]));
  (* a strided footprint: writers revolve cell by cell with period 4 *)
  let ww = words (Array.init 16 (fun i -> 1 lsl (i mod 4))) in
  let h = report ~nprocs:4 [ hot ~owner:"arr" ~fs:50 (mkline 0 ww) ] in
  let cands = R.extract prog [] h in
  Alcotest.(check bool) "strided candidate present" true
    (kind_in cands (fun c ->
         c.R.kind = R.Partition_array { ways = 4; chunked = false }))

let test_extract_lock () =
  let prog =
    let open Dsl in
    Validate.validate_exn
      (program ~name:"lk" ~structs:[]
         ~globals:[ ("l", lock_t); ("x", int_t) ]
         [ fn "main" [] [ (v "x") <-- i 1 ] ])
  in
  let h =
    report ~nprocs:4 [ hot ~owner:"x" ~fs:20 (mkline 0 (words [| 3; 3 |])) ]
  in
  (* the lock and the datum share the line: the only repair is Pad_locks *)
  (match R.extract prog [] h with
   | [ c ] ->
     Alcotest.(check bool) "lock repair" true (c.R.kind = R.Pad_lock_cells);
     Alcotest.(check bool) "adds pad-locks" true (c.R.adds = [ Plan.Pad_locks ])
   | cands ->
     Alcotest.fail (Printf.sprintf "expected one candidate, got %d"
                      (List.length cands)));
  (* once the plan pads locks, the lock repair is never proposed again *)
  Alcotest.(check bool) "no repeat once padded" false
    (kind_in (R.extract prog [ Plan.Pad_locks ] h) (fun c ->
         c.R.kind = R.Pad_lock_cells))

let test_extract_widen () =
  let prog =
    let open Dsl in
    Validate.validate_exn
      (program ~name:"wd" ~structs:[] ~globals:[ ("vec", arr int_t 8) ]
         [ fn "main" [] [ (v "vec").%(i 0) <-- i 1 ] ])
  in
  let old = Plan.Pad_align { var = "vec"; element = false } in
  let h =
    report ~nprocs:4 [ hot ~owner:"vec" ~fs:15 (mkline 0 (words [| 1; 2 |])) ]
  in
  match R.extract prog [ old ] h with
  | [ c ] ->
    Alcotest.(check bool) "widen" true (c.R.kind = R.Widen_pad);
    Alcotest.(check bool) "drops the old pad" true (c.R.drops = [ old ]);
    Alcotest.(check bool) "adds the element pad" true
      (c.R.adds = [ Plan.Pad_align { var = "vec"; element = true } ])
  | cands ->
    Alcotest.fail (Printf.sprintf "expected one candidate, got %d"
                     (List.length cands))

(* ------------------------------------------------------------------ *)
(* The loop over the real suite                                       *)

let test_fixpoint_monotone () =
  (* every workload, both block sizes: the loop terminates and never
     regresses the plan it starts from *)
  List.iter
    (fun (w : W.t) ->
      let nprocs = w.fig3_procs in
      let prog = w.build ~nprocs ~scale:1 in
      let cplan = (T.plan prog ~nprocs).T.plan in
      let recorded = Sim.record prog ~nprocs in
      List.iter
        (fun block ->
          let r = R.refine ~recorded prog cplan ~nprocs ~block in
          let name what =
            Printf.sprintf "%s/%dB: %s" w.name block what
          in
          Alcotest.(check bool) (name "false sharing never regresses") true
            (r.R.final.C.false_sh <= r.R.initial.C.false_sh);
          Alcotest.(check bool) (name "total misses never regress") true
            (C.misses r.R.final <= C.misses r.R.initial);
          Alcotest.(check bool) (name "terminates within the cap") true
            (R.accepted r <= R.default_options.R.max_iters);
          (* every accepted iteration strictly improved *)
          List.iter
            (fun (it : R.iteration) ->
              match it.R.applied with
              | Some _ ->
                Alcotest.(check bool) (name "accepted iters improve") true
                  (it.R.fs_after < it.R.fs_before
                   && it.R.misses_after <= it.R.misses_before)
              | None -> ())
            r.R.iterations;
          (* the refined plan still validates *)
          Plan.validate prog r.R.plan)
        [ 16; 128 ])
    Ws.all

let test_determinism () =
  let w = Ws.find "raytrace" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:1 in
  let cplan = (T.plan prog ~nprocs).T.plan in
  (* two separate recordings: the whole record-then-refine path repeats *)
  let refine () =
    R.refine ~recorded:(Sim.record prog ~nprocs) prog cplan ~nprocs ~block:128
  in
  let a = refine () and b = refine () in
  Alcotest.(check string) "identical narration" (R.render a) (R.render b);
  Alcotest.(check bool) "identical plan" true (a.R.plan = b.R.plan)

let test_topopt_acceptance () =
  (* the ISSUE bar: repair of topopt's compiler plan at 128B converges in
     at most five iterations and removes at least a quarter of the
     residual false sharing *)
  let w = Ws.find "topopt" in
  let nprocs = 12 in
  let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
  let cplan = (T.plan prog ~nprocs).T.plan in
  let recorded = Sim.record prog ~nprocs in
  let r = R.refine ~recorded prog cplan ~nprocs ~block:128 in
  Alcotest.(check bool) "residual FS to recover" true
    (r.R.initial.C.false_sh > 0);
  Alcotest.(check bool) "converges within five iterations" true
    (R.accepted r <= 5 && r.R.stop <> R.Iteration_cap);
  Alcotest.(check bool) "removes at least 25% of residual FS" true
    (R.removed_fraction r >= 0.25)

let test_repairs_programmer_locks () =
  (* water's hand plan forgot Pad_locks; the dynamic diagnosis puts it
     back *)
  let w = Ws.find "water" in
  let nprocs = w.W.fig3_procs in
  let scale = w.W.default_scale in
  let prog = w.W.build ~nprocs ~scale in
  let pplan =
    match w.W.programmer_plan with
    | Some f -> f ~nprocs ~scale
    | None -> Alcotest.fail "water has a programmer plan"
  in
  Alcotest.(check bool) "hand plan omits pad-locks" false
    (List.mem Plan.Pad_locks pplan);
  let recorded = Sim.record prog ~nprocs in
  let r = R.refine ~recorded prog pplan ~nprocs ~block:128 in
  Alcotest.(check bool) "repair restores pad-locks" true
    (List.mem Plan.Pad_locks r.R.plan)

(* ------------------------------------------------------------------ *)
(* Semantic transparency of the refined layouts                       *)

let checksum_global (w : W.t) =
  match w.name with
  | "maxflow" -> "result"
  | "pverify" -> "mismatch"
  | _ -> "checksum"

let test_f_layout_transparency () =
  (* repaired layouts change only addresses, never program results *)
  List.iter
    (fun (w : W.t) ->
      let nprocs = 6 in
      let prog = w.build ~nprocs ~scale:1 in
      let run plan =
        let layout = Layout.realize prog plan ~block:128 in
        let r =
          Tutil.run_to_sink prog ~nprocs ~layout ~sink:Fs_trace.Sink.null
        in
        Interp.read_global r (checksum_global w) 0
      in
      let base = run [] in
      let cplan = (T.plan prog ~nprocs).T.plan in
      let recorded = Sim.record prog ~nprocs in
      let f = R.refine ~recorded prog cplan ~nprocs ~block:128 in
      Alcotest.(check bool)
        (w.name ^ ": repaired layout preserves the result")
        true
        (Value.equal base (run f.R.plan)))
    Ws.all

(* ------------------------------------------------------------------ *)
(* The N/C/P/F experiment driver                                      *)

let test_experiment_rows () =
  let rows =
    Fs_feedback.Repair_experiments.table ~blocks:[ 128 ] ~scale_override:1
      ~jobs:2 ()
  in
  Alcotest.(check int) "one row per workload" (List.length Ws.all)
    (List.length rows);
  List.iter
    (fun (r : Fs_feedback.Repair_experiments.row) ->
      Alcotest.(check bool) (r.name ^ ": F never worse than C") true
        (r.feedback.rcell.false_sharing <= r.compiler.false_sharing);
      match (r.programmer, r.feedback_p) with
      | Some p, Some fp ->
        Alcotest.(check bool) (r.name ^ ": F(P) never worse than P") true
          (fp.rcell.false_sharing <= p.false_sharing)
      | None, None -> ()
      | _ -> Alcotest.fail (r.name ^ ": P and F(P) must appear together"))
    rows

let suite =
  [ Alcotest.test_case "extract: busy scalars" `Quick test_extract_busy_scalars;
    Alcotest.test_case "extract: partition inference" `Quick test_extract_partition;
    Alcotest.test_case "extract: co-allocated lock" `Quick test_extract_lock;
    Alcotest.test_case "extract: widen pad" `Quick test_extract_widen;
    Alcotest.test_case "fixpoint + monotone" `Slow test_fixpoint_monotone;
    Alcotest.test_case "deterministic" `Slow test_determinism;
    Alcotest.test_case "topopt acceptance" `Slow test_topopt_acceptance;
    Alcotest.test_case "repairs programmer locks" `Slow test_repairs_programmer_locks;
    Alcotest.test_case "F layout transparency" `Slow test_f_layout_transparency;
    Alcotest.test_case "N/C/P/F rows" `Slow test_experiment_rows ]
