(* Tests for the phase-resolved forensics: the epoch segmenter's sum
   property over the whole benchmark suite, its agreement with the
   interpreter's barrier count, the static cross-check on pverify, and
   the hot-line report's attribution of topopt's revolving assignment
   array. *)

module Phases = Falseshare.Phases
module Hotlines = Falseshare.Hotlines
module Blame = Falseshare.Blame
module Attribution = Falseshare.Attribution
module Sim = Falseshare.Sim
module E = Falseshare.Experiments
module Emit = Falseshare.Emit
module C = Fs_cache.Mpcache
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Plan = Fs_layout.Plan
module Json = Fs_obs.Json

let sum_epochs epochs =
  let total = C.zero_counts () in
  List.iter
    (fun (e : Phases.epoch) -> C.add_into total (Phases.epoch_total e))
    epochs;
  total

(* Per-epoch counters are snapshots of the same monotone accumulators, so
   they must sum exactly to the whole-run counts — for every workload, at
   a false-sharing-prone and a word-sized block.  [proc_counts] is the
   per-processor ground truth the snapshots were cut from. *)
let test_epoch_sums () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun block ->
          let nprocs = 4 in
          let prog = w.W.build ~nprocs ~scale:1 in
          let recorded = Sim.record prog ~nprocs in
          let p = Phases.analyze ~recorded prog Plan.empty ~nprocs ~block in
          let what = Printf.sprintf "%s@%dB" w.W.name block in
          Alcotest.(check bool)
            (what ^ ": epochs sum to aggregate")
            true
            (sum_epochs p.Phases.epochs = p.Phases.aggregate);
          let nepochs =
            recorded.Sim.interp.Fs_interp.Interp.barrier_episodes + 1
          in
          Alcotest.(check int)
            (what ^ ": one epoch per barrier episode plus the tail")
            nepochs
            (List.length p.Phases.epochs);
          (* per processor too: each proc's epoch deltas rebuild its row *)
          let per_proc = Array.init nprocs (fun _ -> C.zero_counts ()) in
          List.iter
            (fun (e : Phases.epoch) ->
              Array.iteri
                (fun i c -> C.add_into per_proc.(i) c)
                e.Phases.per_proc)
            p.Phases.epochs;
          let whole = C.zero_counts () in
          Array.iter (C.add_into whole) per_proc;
          Alcotest.(check bool)
            (what ^ ": per-proc deltas sum too")
            true
            (whole = p.Phases.aggregate))
        [ 16; 128 ])
    Ws.all

let test_pverify_cross_check () =
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
  let recorded = Sim.record prog ~nprocs in
  let p = Phases.analyze ~recorded prog Plan.empty ~nprocs ~block:128 in
  Alcotest.(check bool) "no violations" true (p.Phases.violations = []);
  Alcotest.(check bool)
    "some epoch observes write-sharing" true
    (List.exists
       (fun (e : Phases.epoch) -> e.Phases.write_shared <> [])
       p.Phases.epochs)

(* The CLI's JSON must carry the same sum property: per-epoch per-proc
   counts summing exactly to the aggregate, after a serialization
   round-trip. *)
let test_phases_json_sums () =
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
  let recorded = Sim.record prog ~nprocs in
  let p = Phases.analyze ~recorded prog Plan.empty ~nprocs ~block:128 in
  let j =
    match Json.of_string (Json.to_string (Emit.phases p)) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("phases JSON does not parse: " ^ e)
  in
  let geti path j =
    match Option.bind (Json.member path j) Json.get_int with
    | Some n -> n
    | None -> Alcotest.fail ("missing int field " ^ path)
  in
  let epochs =
    match Option.bind (Json.member "epochs" j) Json.get_list with
    | Some l -> l
    | None -> Alcotest.fail "missing epochs"
  in
  let field name =
    let agg =
      match Json.member "aggregate" j with
      | Some a -> geti name a
      | None -> Alcotest.fail "missing aggregate"
    in
    let from_epochs =
      List.fold_left
        (fun acc e ->
          let per_proc =
            match Option.bind (Json.member "per_proc" e) Json.get_list with
            | Some l -> l
            | None -> Alcotest.fail "missing per_proc"
          in
          List.fold_left (fun acc c -> acc + geti name c) acc per_proc)
        0 epochs
    in
    Alcotest.(check int) ("json sum: " ^ name) agg from_epochs
  in
  List.iter field
    [ "reads"; "writes"; "cold"; "replacement"; "true_sharing";
      "false_sharing"; "invalidations"; "upgrades" ]

(* Under the compiler's layout (cost transposed, the gain field behind
   indirection), the revolving dynamically partitioned assignment array is
   what remains: it must rank first, classified as false sharing, with a
   healthy migration rate. *)
let test_topopt_hotlines () =
  let w = Ws.find "topopt" in
  let nprocs = w.W.fig3_procs in
  let scale = w.W.default_scale in
  let prog = w.W.build ~nprocs ~scale in
  let plan = E.plan_for w W.C prog ~nprocs ~scale in
  let recorded = Sim.record prog ~nprocs in
  let h = Hotlines.analyze ~recorded prog plan ~nprocs ~block:128 in
  match h.Hotlines.hot with
  | [] -> Alcotest.fail "no hot lines"
  | top :: _ ->
    Alcotest.(check string) "assign owns the top line" "assign"
      top.Hotlines.owner;
    Alcotest.(check bool) "classified as false sharing" true
      (top.Hotlines.verdict = Hotlines.Falsely_shared);
    Alcotest.(check bool)
      (Printf.sprintf "non-trivial ping-pong score (%.3f)" top.Hotlines.score)
      true
      (top.Hotlines.score > 0.2);
    Alcotest.(check bool) "top line has false-sharing misses" true
      (top.Hotlines.counts.C.false_sh > 0)

(* The hot-line report's per-line counters are the per-block counters: an
   independent simulation of the same recorded trace must agree, line by
   line. *)
let test_hotlines_agree_with_per_block () =
  let w = Ws.find "pverify" in
  let nprocs = w.W.fig3_procs in
  let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
  let recorded = Sim.record prog ~nprocs in
  let h = Hotlines.analyze ~recorded ~top:1000 prog [] ~nprocs ~block:128 in
  let run =
    Sim.cache_sim ~track_blocks:true ~recorded prog [] ~nprocs ~block:128
  in
  Alcotest.(check bool) "some lines" true (h.Hotlines.hot <> []);
  List.iter
    (fun (x : Hotlines.hot) ->
      match List.assoc_opt x.Hotlines.line.C.line_block run.Sim.per_block with
      | None -> Alcotest.fail "hot line missing from per_block"
      | Some c ->
        Alcotest.(check bool)
          (Printf.sprintf "line 0x%x counts agree" x.Hotlines.line.C.line_block)
          true
          (x.Hotlines.counts = c))
    h.Hotlines.hot;
  (* and the line set covers every block that missed *)
  Alcotest.(check int) "one line per tracked block"
    (List.length run.Sim.per_block)
    (List.length h.Hotlines.hot + h.Hotlines.dropped)

(* The forensic consumers' outputs, pinned: (length, CRC-32) of the
   compact JSON of Emit.hotlines, Emit.blame, Emit.phases and
   Emit.attribution for three workloads under the unoptimized and the
   compiler layout at 128 B blocks, 8 processors.  The pins come from
   the listener-path replay (and, for Attribution, direct
   interpretation), so any drift in the engine route shows here. *)
let consumer_pins =
  [ ("maxflow s4 original hotlines", 5851, 0xab5dbd70);
    ("maxflow s4 original blame", 11695, 0xe9253997);
    ("maxflow s4 original phases", 36859, 0xea330479);
    ("maxflow s4 original attribution", 1550, 0xbee869a4);
    ("maxflow s4 compiler hotlines", 5565, 0xe1e27d71);
    ("maxflow s4 compiler blame", 17451, 0x270e4e58);
    ("maxflow s4 compiler phases", 36861, 0xc0993cef);
    ("maxflow s4 compiler attribution", 2049, 0x0fbba504);
    ("water s2 original hotlines", 5693, 0xfdc790b4);
    ("water s2 original blame", 5515, 0xc1f22c81);
    ("water s2 original phases", 20831, 0x4f4294c4);
    ("water s2 original attribution", 803, 0xecb417b2);
    ("water s2 compiler hotlines", 5384, 0x4f6fc429);
    ("water s2 compiler blame", 4757, 0xb5b56eda);
    ("water s2 compiler phases", 19645, 0x0d84ab78);
    ("water s2 compiler attribution", 976, 0xfa85ed42);
    ("pverify s4 original hotlines", 5711, 0x8eb74d9e);
    ("pverify s4 original blame", 8782, 0xc00de0f5);
    ("pverify s4 original phases", 6508, 0xc0ebab23);
    ("pverify s4 original attribution", 560, 0x20705c2a);
    ("pverify s4 compiler hotlines", 5399, 0xb4bfbd6a);
    ("pverify s4 compiler blame", 3432, 0x6b3d68ec);
    ("pverify s4 compiler phases", 6481, 0xcd2efba5);
    ("pverify s4 compiler attribution", 1278, 0x93fb3e03) ]

let test_consumer_pins () =
  let nprocs = 8 and block = 128 in
  let got =
    List.concat_map
      (fun (name, scale) ->
        let w = Ws.find name in
        let prog = w.W.build ~nprocs ~scale in
        let recorded = Sim.record prog ~nprocs in
        List.concat_map
          (fun version ->
            let plan = E.plan_for w version prog ~nprocs ~scale in
            let pin what json =
              let s = Json.to_string ~compact:true json in
              ( Printf.sprintf "%s s%d %s %s" name scale
                  (W.version_to_string version) what,
                String.length s,
                Fs_util.Crc32.of_string s )
            in
            [ pin "hotlines"
                (Emit.hotlines (Hotlines.analyze ~recorded prog plan ~nprocs ~block));
              pin "blame"
                (Emit.blame (Blame.analyze ~recorded prog plan ~nprocs ~block));
              pin "phases"
                (Emit.phases (Phases.analyze ~recorded prog plan ~nprocs ~block));
              pin "attribution"
                (Emit.attribution
                   (Attribution.attribute ~recorded prog plan ~nprocs ~block)) ])
          [ W.N; W.C ])
      [ ("maxflow", 4); ("water", 2); ("pverify", 4) ]
  in
  let show (k, n, c) = Printf.sprintf "(%S, %d, 0x%08x)" k n c in
  if got <> consumer_pins then
    Alcotest.fail
      ("consumer outputs moved; now:\n" ^ String.concat ";\n" (List.map show got))

let suite =
  [ Alcotest.test_case "epoch sums (all workloads x {16,128}B)" `Slow
      test_epoch_sums;
    Alcotest.test_case "pverify cross-check" `Quick test_pverify_cross_check;
    Alcotest.test_case "phases json sums" `Quick test_phases_json_sums;
    Alcotest.test_case "topopt hot lines" `Quick test_topopt_hotlines;
    Alcotest.test_case "hot lines agree with per-block" `Quick
      test_hotlines_agree_with_per_block;
    Alcotest.test_case "consumer outputs pinned (maxflow, water, pverify)" `Quick
      test_consumer_pins ]
