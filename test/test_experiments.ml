(* Tests for the experiment drivers: structural sanity of every table and
   figure reproduction, on reduced parameters so the suite stays fast. *)

module E = Falseshare.Experiments
module W = Fs_workloads.Workload

let test_figure3_rows () =
  let rows = E.figure3 ~blocks:[ 32 ] ~scale_override:1 () in
  Alcotest.(check int) "six programs, one block" 6 (List.length rows);
  List.iter
    (fun (r : E.fig3_row) ->
      (* indirection adds pointer loads, so the transformed run may have
         more references, never fewer *)
      Alcotest.(check bool) (r.name ^ " accesses not lost") true
        (r.unopt.E.accesses <= r.compiler.E.accesses);
      Alcotest.(check bool) (r.name ^ " has misses") true (r.unopt.E.misses > 0);
      Alcotest.(check bool) (r.name ^ " fs <= misses") true
        (r.unopt.E.false_sharing <= r.unopt.E.misses
         && r.compiler.E.false_sharing <= r.compiler.E.misses);
      Alcotest.(check bool) (r.name ^ " fs reduced") true
        (r.compiler.E.false_sharing < r.unopt.E.false_sharing))
    rows;
  let s = E.render_figure3 rows in
  Tutil.check_contains "fig3 render" s "maxflow";
  Tutil.check_contains "fig3 render" s "FS removed"

let test_table2_rows () =
  let rows = E.table2 ~blocks:[ 64 ] () in
  Alcotest.(check int) "six programs" 6 (List.length rows);
  List.iter
    (fun (r : E.table2_row) ->
      (* the per-transformation fractions decompose the total *)
      let parts = r.group_transpose +. r.indirection +. r.pad_align +. r.locks in
      Alcotest.(check (float 0.02)) (r.name ^ " parts sum to total")
        r.total_reduction parts;
      Alcotest.(check bool) (r.name ^ " meaningful reduction") true
        (r.total_reduction > 0.5))
    rows;
  (* the per-benchmark signatures of Table 2 *)
  let row n = List.find (fun (r : E.table2_row) -> r.name = n) rows in
  Alcotest.(check bool) "pverify is indirection-dominated" true
    ((row "pverify").indirection > (row "pverify").group_transpose);
  Alcotest.(check bool) "fmm is g&t-dominated" true
    ((row "fmm").group_transpose > 0.5);
  Alcotest.(check bool) "maxflow uses no g&t" true
    ((row "maxflow").group_transpose < 0.01 && (row "maxflow").indirection < 0.01);
  Alcotest.(check bool) "maxflow pads" true ((row "maxflow").pad_align > 0.1);
  let s = E.render_table2 rows in
  Tutil.check_contains "table2 render" s "pverify"

let test_speedups_and_table3 () =
  let procs = [ 1; 4; 8 ] in
  let series = E.speedups ~procs ~names:[ "pverify"; "water" ] () in
  (* pverify has three versions, water two *)
  Alcotest.(check int) "five series" 5 (List.length series);
  List.iter
    (fun (s : E.series) ->
      Alcotest.(check int) "all points" 3 (List.length s.points);
      let one = List.assoc 1 s.points in
      Alcotest.(check bool) "defined at P=1" true (one > 0.0))
    series;
  (* the baseline is the unoptimized uniprocessor run: its own speedup is 1 *)
  let pv_n =
    List.find (fun (s : E.series) -> s.workload = "pverify" && s.version = W.N) series
  in
  Alcotest.(check (float 1e-6)) "N speedup at 1" 1.0 (List.assoc 1 pv_n.points);
  let rows = E.table3 ~series () in
  let pv = List.find (fun (r : E.table3_row) -> r.name = "pverify") rows in
  Alcotest.(check int) "three versions reported" 3 (List.length pv.results);
  let best_of v =
    let _, sp, _ = List.find (fun (v', _, _) -> v' = v) pv.results in
    sp
  in
  Alcotest.(check bool) "compiler wins" true (best_of W.C > best_of W.N);
  let s = E.render_table3 rows in
  Tutil.check_contains "table3 render" s "pverify"

let test_plan_for () =
  let w = Fs_workloads.Workloads.find "pverify" in
  let prog = w.W.build ~nprocs:4 ~scale:1 in
  Alcotest.(check bool) "N empty" true (E.plan_for w W.N prog ~nprocs:4 ~scale:1 = []);
  Alcotest.(check bool) "single proc empty" true
    (E.plan_for w W.C prog ~nprocs:1 ~scale:1 = []);
  Alcotest.(check bool) "C non-empty" true
    (E.plan_for w W.C prog ~nprocs:4 ~scale:1 <> []);
  Alcotest.(check bool) "P non-empty" true
    (E.plan_for w W.P prog ~nprocs:4 ~scale:1 <> [])

let test_renderers_nonempty () =
  let stats =
    { E.fs_share_of_misses_128 = 0.7;
      fs_removed_128 = 0.8;
      other_miss_increase_128 = 0.19;
      total_miss_reduction_64 = 0.49 }
  in
  let s = E.render_stats stats in
  Tutil.check_contains "stats render" s "70.0%";
  let rows = [ { E.name = "x"; improvement = 0.25; at_procs = 8 } ] in
  Tutil.check_contains "exec render" (E.render_exec rows) "25.0%"

let suite =
  [ Alcotest.test_case "figure 3" `Slow test_figure3_rows;
    Alcotest.test_case "table 2" `Slow test_table2_rows;
    Alcotest.test_case "speedups / table 3" `Slow test_speedups_and_table3;
    Alcotest.test_case "plan_for" `Quick test_plan_for;
    Alcotest.test_case "renderers" `Quick test_renderers_nonempty ]

let test_attribution () =
  (* the simulator's per-structure verdict names the same culprits the
     compiler's static report does *)
  let w = Fs_workloads.Workloads.find "pverify" in
  let nprocs = 8 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let recorded = Falseshare.Sim.record prog ~nprocs in
  let rows =
    Falseshare.Attribution.attribute ~recorded prog [] ~nprocs ~block:128
  in
  (match rows with
   | top :: _ ->
     Alcotest.(check string) "gates records dominate false sharing" "gates"
       top.Falseshare.Attribution.var
   | [] -> Alcotest.fail "no rows");
  (* after transformation the false sharing collapses everywhere *)
  let cplan = Falseshare.Sim.compiler_plan prog ~nprocs in
  let rows' =
    Falseshare.Attribution.attribute ~recorded prog cplan ~nprocs ~block:128
  in
  let total_fs r =
    List.fold_left
      (fun acc (x : Falseshare.Attribution.row) ->
        acc + x.counts.Fs_cache.Mpcache.false_sh)
      0 r
  in
  Alcotest.(check bool) "transformed fs tiny" true
    (total_fs rows' * 10 < total_fs rows);
  Tutil.check_contains "render" (Falseshare.Attribution.render rows) "gates"

let test_parc_example_file () =
  (* the shipped .parc example parses, validates, and gets the expected plan *)
  let file = "../../../examples/histogram.parc" in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Fs_parc.Parser.parse_and_validate src with
    | Error errs -> Alcotest.fail (String.concat "; " errs)
    | Ok prog ->
      let plan = Falseshare.Sim.compiler_plan prog ~nprocs:8 in
      Alcotest.(check bool) "counts regrouped" true
        (List.exists
           (function
             | Fs_layout.Plan.Regroup { var = "counts"; _ } -> true
             | _ -> false)
           plan)
  end

let suite =
  suite
  @ [ Alcotest.test_case "attribution" `Slow test_attribution;
      Alcotest.test_case "parc example file" `Quick test_parc_example_file ]
