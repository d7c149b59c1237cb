(* Tests for the transformation heuristics of Section 3.3. *)

open Fs_ir
module T = Fs_transform.Transform
module Plan = Fs_layout.Plan
module Summary = Fs_analysis.Summary

let dsl_prog ?structs globals funcs =
  Validate.validate_exn (Dsl.program ~name:"t" ?structs ~globals funcs)

let decision_of report name =
  let e =
    List.find
      (fun (e : T.entry) -> Summary.key_to_string e.T.key = name)
      report.T.entries
  in
  e.T.decision

let has_action pred report = List.exists pred report.T.plan

let test_group_transpose_found () =
  let open Dsl in
  let p =
    dsl_prog [ ("cnt", arr int_t 8) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 100) [ bump ((v "cnt").%(pdv)) (p "k") ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "cnt" with
  | T.Group { axis = 0 } -> ()
  | _ -> Alcotest.fail "expected group & transpose on axis 0"

let test_group_axis_1 () =
  let open Dsl in
  let p =
    dsl_prog [ ("m", arr2 int_t 16 8) ]
      [ fn "main" []
          [ sfor "r" (i 0) (i 16) [ bump ((v "m").%(p "r").%(pdv)) (i 1) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "m" with
  | T.Group { axis = 1 } -> ()
  | _ -> Alcotest.fail "expected axis 1"

let test_grouping_joins_vars () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 8); ("b", arr int_t 8) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 100)
              [ bump ((v "a").%(pdv)) (i 1); bump ((v "b").%(pdv)) (i 1) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  Alcotest.(check bool) "one grouped action" true
    (has_action
       (function
         | Plan.Group_transpose { vars; _ } -> vars = [ "a"; "b" ]
         | _ -> false)
       r)

let test_regroup_strided () =
  let open Dsl in
  let p =
    dsl_prog [ ("flat", arr int_t 64) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 8)
              [ bump ((v "flat").%((p "k" *% i 8) +% pdv)) (i 1) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "flat" with
  | T.Regroup { ways = 8; chunked = false } -> ()
  | _ -> Alcotest.fail "expected strided regroup"

let test_regroup_chunked () =
  let open Dsl in
  let p =
    dsl_prog [ ("flat", arr int_t 64) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 8)
              [ bump ((v "flat").%((pdv *% i 8) +% p "k")) (i 1) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "flat" with
  | T.Regroup { chunked = true; _ } -> ()
  | _ -> Alcotest.fail "expected chunked regroup"

let test_indirection_found () =
  let open Dsl in
  let structs = [ { Ast.sname = "s"; fields = [ ("hdr", int_t); ("per", arr int_t 8) ] } ] in
  let p =
    dsl_prog ~structs [ ("n", arr (struct_t "s") 16) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 16)
              [ bump ((v "n").%(p "k").%{"per"}.%(pdv)) (i 1) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  (match decision_of r "n.per" with
   | T.Indirection { field = "per" } -> ()
   | _ -> Alcotest.fail "expected indirection");
  Alcotest.(check bool) "plan carries it" true
    (has_action
       (function Plan.Indirect { var = "n"; fields = [ "per" ] } -> true | _ -> false)
       r)

let test_pad_align_found () =
  let open Dsl in
  (* scattered write-shared records: pad & align per element *)
  let p =
    dsl_prog
      ~structs:[ { Ast.sname = "c"; fields = [ ("d", int_t); ("m", int_t) ] } ]
      [ ("cells", arr (struct_t "c") 16); ("ptr", int_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 50)
              [ decl "c" (ld (v "ptr") %% i 16);
                bump ((v "cells").%(p "c").%{"d"}) (i 1);
                (v "ptr") <-- ((ld (v "ptr") +% pdv +% i 1) %% i 97) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  (match decision_of r "cells.d" with
   | T.Pad { element = true } -> ()
   | d ->
     Alcotest.failf "expected pad, got %s"
       (match d with
        | T.Keep -> "keep" | T.Group _ -> "group" | T.Regroup _ -> "regroup"
        | T.Indirection _ -> "ind" | T.Pad _ -> "pad"))

let test_locks_always_padded () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t); ("x", int_t) ]
      [ fn "main" [] [ lock (v "l"); bump (v "x") (i 1); unlock (v "l") ] ]
  in
  let r = T.plan p ~nprocs:4 in
  Alcotest.(check bool) "pad locks present" true
    (has_action (function Plan.Pad_locks -> true | _ -> false) r);
  (* and can be disabled for the ablation *)
  let r' = T.plan ~options:{ T.default_options with pad_locks = false } p ~nprocs:4 in
  Alcotest.(check bool) "ablation removes it" false
    (has_action (function Plan.Pad_locks -> true | _ -> false) r')

let test_hotness_threshold () =
  let open Dsl in
  (* a cold write-shared scalar next to a hot per-process vector: the
     scalar stays because static profiling rates it cold *)
  let p =
    dsl_prog [ ("hot", arr int_t 8); ("coldvar", int_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 500) [ bump ((v "hot").%(pdv)) (i 1) ];
            bump (v "coldvar") (i 1) ] ]
  in
  let r = T.plan p ~nprocs:8 in
  (match decision_of r "coldvar" with
   | T.Keep -> ()
   | _ -> Alcotest.fail "cold scalar should stay");
  (* with a zero threshold it is padded *)
  let r' = T.plan ~options:{ T.default_options with hot_threshold = 0.0 } p ~nprocs:8 in
  match decision_of r' "coldvar" with
  | T.Pad _ -> ()
  | _ -> Alcotest.fail "zero threshold should pad it"

let test_single_writer_kept () =
  let open Dsl in
  let p =
    dsl_prog [ ("tbl", arr int_t 16); ("out", arr int_t 8) ]
      [ fn "main" []
          [ when_ (pdv ==% i 0)
              [ sfor "k" (i 0) (i 16) [ (v "tbl").%(p "k") <-- p "k" ] ];
            barrier;
            sfor "k" (i 0) (i 50)
              [ bump ((v "out").%(pdv)) (ld (v "tbl").%((p "k" +% pdv) %% i 16)) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "tbl" with
  | T.Keep -> ()
  | _ -> Alcotest.fail "single-writer table should stay"

let test_shared_reads_with_locality_block_transform () =
  let open Dsl in
  (* written per-process rarely, read by everyone with unit stride often:
     the order-of-magnitude rule keeps it *)
  let p =
    dsl_prog [ ("tab", arr int_t 8) ]
      [ fn "main" []
          [ (v "tab").%(pdv) <-- pdv;
            barrier;
            sfor "r" (i 0) (i 60)
              [ decl "s" (i 0);
                sfor "q" (i 0) (i 8) [ set "s" (p "s" +% ld (v "tab").%(p "q")) ];
                (v "tab").%(pdv) <-- (p "s" %% i 1000) ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "tab" with
  | T.Keep -> ()
  | _ -> Alcotest.fail "read-dominated table should stay"

let test_unit_stride_writes_not_padded () =
  let open Dsl in
  (* Topopt's revolving partition: write-shared, but unit stride *)
  let p =
    dsl_prog [ ("a", arr int_t 64) ]
      [ fn "main" []
          [ sfor "r" (i 0) (i 10)
              [ decl "base" (((pdv +% p "r") %% i 8) *% i 8);
                sfor "j" (i 0) (i 8) [ bump ((v "a").%(p "base" +% p "j")) (i 1) ] ] ] ]
  in
  let r = T.plan p ~nprocs:8 in
  match decision_of r "a" with
  | T.Keep -> ()
  | _ -> Alcotest.fail "revolving unit-stride array should stay"

let test_profile_ablation_changes_plan () =
  let open Dsl in
  (* with profiling the loop-heavy vector dominates; without it the weights
     flatten and the cold scalar crosses the threshold *)
  let p =
    dsl_prog [ ("hot", arr int_t 8); ("coldvar", int_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 500) [ bump ((v "hot").%(pdv)) (i 1) ];
            bump (v "coldvar") (i 1) ] ]
  in
  let with_p = T.plan p ~nprocs:8 in
  let without =
    T.plan ~options:{ T.default_options with profile = false } p ~nprocs:8
  in
  let pads r = has_action (function Plan.Pad_align _ -> true | _ -> false) r in
  Alcotest.(check bool) "profiled: scalar kept" false (pads with_p);
  Alcotest.(check bool) "unprofiled: scalar padded" true (pads without)

let test_plan_validates () =
  (* every compiler plan must validate against its program *)
  List.iter
    (fun (w : Fs_workloads.Workload.t) ->
      List.iter
        (fun nprocs ->
          let prog = w.build ~nprocs ~scale:1 in
          let r = T.plan prog ~nprocs in
          Plan.validate prog r.T.plan)
        [ 2; 7; 12 ])
    Fs_workloads.Workloads.all

(* A regroup splits a variable's outermost dimension one way per
   process: past that extent (water's and fmm's 96 records at 97
   processors) the variable is kept, and the plan still validates. *)
let test_plan_validates_any_nprocs () =
  List.iter
    (fun (w : Fs_workloads.Workload.t) ->
      List.iter
        (fun nprocs ->
          let prog = w.build ~nprocs ~scale:1 in
          match T.plan prog ~nprocs with
          | r -> Plan.validate prog r.T.plan
          | exception Plan.Plan_error m ->
            Alcotest.failf "%s at %d processors: %s" w.name nprocs m)
        [ 2; 64; 97; 256 ])
    Fs_workloads.Workloads.every;
  let water = Fs_workloads.Workloads.find "water" in
  let r = T.plan (water.build ~nprocs:97 ~scale:1) ~nprocs:97 in
  match T.decision_for r "mol" with
  | T.Keep -> ()
  | _ -> Alcotest.fail "water's mol transformed past its extent"

let test_report_renders () =
  let open Dsl in
  let p =
    dsl_prog [ ("cnt", arr int_t 4) ]
      [ fn "main" [] [ sfor "k" (i 0) (i 100) [ bump ((v "cnt").%(pdv)) (i 1) ] ] ]
  in
  let r = T.plan p ~nprocs:4 in
  let s = Format.asprintf "%a" T.pp_report r in
  Tutil.check_contains "report" s "cnt";
  Tutil.check_contains "report" s "group&transpose"

let suite =
  [ Alcotest.test_case "group & transpose" `Quick test_group_transpose_found;
    Alcotest.test_case "group axis 1" `Quick test_group_axis_1;
    Alcotest.test_case "grouping joins vars" `Quick test_grouping_joins_vars;
    Alcotest.test_case "regroup strided" `Quick test_regroup_strided;
    Alcotest.test_case "regroup chunked" `Quick test_regroup_chunked;
    Alcotest.test_case "indirection" `Quick test_indirection_found;
    Alcotest.test_case "pad & align" `Quick test_pad_align_found;
    Alcotest.test_case "locks always padded" `Quick test_locks_always_padded;
    Alcotest.test_case "hotness threshold" `Quick test_hotness_threshold;
    Alcotest.test_case "single writer kept" `Quick test_single_writer_kept;
    Alcotest.test_case "read locality blocks transform" `Quick
      test_shared_reads_with_locality_block_transform;
    Alcotest.test_case "unit stride not padded" `Quick test_unit_stride_writes_not_padded;
    Alcotest.test_case "profile ablation" `Quick test_profile_ablation_changes_plan;
    Alcotest.test_case "workload plans validate" `Quick test_plan_validates;
    Alcotest.test_case "workload plans validate at 2-256 processors" `Quick
      test_plan_validates_any_nprocs;
    Alcotest.test_case "report renders" `Quick test_report_renders ]
