(* Tests for the runtime telemetry spine: causal spans (nesting, ids,
   attrs, error capture, the ambient recorder), a QCheck property that
   child span intervals always sit inside their parent's, the domain
   pool's per-worker instrumentation, and the fused-replay flight
   recorder's agreement with the uninstrumented path. *)

module Span = Fs_obs.Span
module Par = Fs_util.Par
module Rng = Fs_util.Rng
module Flight = Fs_replay.Flight
module Replay = Fs_replay.Replay
module Sim = Falseshare.Sim
module Layout = Fs_layout.Layout
module Cell_trace = Fs_trace.Cell_trace
module C = Fs_cache.Mpcache
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_basics () =
  let t = Span.create () in
  let r =
    Span.with_ t "root" ~attrs:[ ("block", "64") ] (fun () ->
        let a = Span.with_ t "child1" (fun () -> Span.attr t "inner" "1"; 1) in
        let b = Span.with_ t "child2" (fun () -> 2) in
        a + b)
  in
  Alcotest.(check int) "with_ returns the thunk's value" 3 r;
  match Span.spans t with
  | [ root; c1; c2 ] ->
    Alcotest.(check int) "dense ids" 0 root.Span.id;
    Alcotest.(check int) "root has no parent" (-1) root.Span.parent;
    Alcotest.(check int) "child1 under root" root.Span.id c1.Span.parent;
    Alcotest.(check int) "child2 under root" root.Span.id c2.Span.parent;
    Alcotest.(check int) "root depth" 0 root.Span.depth;
    Alcotest.(check int) "child depth" 1 c2.Span.depth;
    Alcotest.(check (option string)) "start attrs kept" (Some "64")
      (List.assoc_opt "block" root.Span.attrs);
    Alcotest.(check (option string)) "attr lands on innermost open span"
      (Some "1")
      (List.assoc_opt "inner" c1.Span.attrs);
    List.iter
      (fun s ->
        Alcotest.(check bool) (s.Span.name ^ " closed") true
          (s.Span.dur_s >= 0. && s.Span.alloc_bytes >= 0.))
      [ root; c1; c2 ]
  | spans ->
    Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length spans))

let test_span_errors_and_ambient () =
  (* an exception closes the span, stamps an "error" attribute, and
     re-raises unchanged *)
  let t = Span.create () in
  (match Span.with_ t "boom" (fun () -> failwith "kaput") with
   | () -> Alcotest.fail "exception swallowed"
   | exception Failure m -> Alcotest.(check string) "re-raised" "kaput" m);
  (match Span.spans t with
   | [ s ] ->
     Alcotest.(check bool) "span closed despite raise" true (s.Span.dur_s >= 0.);
     (match List.assoc_opt "error" s.Span.attrs with
      | Some e -> Tutil.check_contains "error attr" e "kaput"
      | None -> Alcotest.fail "no error attribute")
   | _ -> Alcotest.fail "expected exactly one span");
  (* with no ambient recorder, timed is a passthrough and note a no-op *)
  Span.set_current None;
  Alcotest.(check int) "timed passthrough" 42 (Span.timed "x" (fun () -> 42));
  Span.note "k" "v";
  (* with one installed, timed records into it *)
  let amb = Span.create () in
  Span.set_current (Some amb);
  Fun.protect ~finally:(fun () -> Span.set_current None) @@ fun () ->
  Alcotest.(check int) "timed with recorder" 7
    (Span.timed "cmd" ~attrs:[ ("a", "b") ] (fun () ->
         Span.note "n" "v";
         7));
  match Span.spans amb with
  | [ s ] ->
    Alcotest.(check string) "ambient span name" "cmd" s.Span.name;
    Alcotest.(check (option string)) "start attr kept" (Some "b")
      (List.assoc_opt "a" s.Span.attrs);
    Alcotest.(check (option string)) "note lands on the ambient span"
      (Some "v")
      (List.assoc_opt "n" s.Span.attrs)
  | _ -> Alcotest.fail "ambient recorder did not record"

(* Random span trees, seeded: every child's [start, start+dur] interval
   must sit inside its parent's, depths must increase by one, and ids
   must be dense in start order.  This is the acceptance property for
   "consistent nesting" of the profile subcommand's span tree. *)
let prop_span_nesting =
  QCheck.Test.make ~name:"span intervals nest inside their parent" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let t = Span.create () in
      let rec build depth =
        Span.with_ t (Printf.sprintf "n%d" depth) (fun () ->
            (* a little allocation so spans have nonzero footprints *)
            ignore (Sys.opaque_identity (Array.make (1 + Rng.int rng 64) 0));
            if depth < 3 then
              for _ = 1 to Rng.int rng 4 do
                build (depth + 1)
              done)
      in
      for _ = 0 to Rng.int rng 3 do
        build 0
      done;
      let spans = Array.of_list (Span.spans t) in
      let eps = 1e-9 in
      let ok = ref true in
      Array.iteri
        (fun i (s : Span.span) ->
          if s.Span.id <> i || s.Span.dur_s < 0. then ok := false;
          if s.Span.parent = -1 then begin
            if s.Span.depth <> 0 then ok := false
          end
          else begin
            let p = spans.(s.Span.parent) in
            if p.Span.depth + 1 <> s.Span.depth then ok := false;
            if p.Span.id >= s.Span.id then ok := false;
            if p.Span.start_s > s.Span.start_s +. eps then ok := false;
            if
              s.Span.start_s +. s.Span.dur_s
              > p.Span.start_s +. p.Span.dur_s +. eps
            then ok := false
          end)
        spans;
      !ok)

(* ------------------------------------------------------------------ *)
(* Domain-pool instrumentation                                         *)

let test_par_stats () =
  let seen = ref [] in
  Par.set_observer (Some (fun s -> seen := s :: !seen));
  Fun.protect ~finally:(fun () -> Par.set_observer None) @@ fun () ->
  let xs = List.init 20 Fun.id in
  let f x = x * x in
  (* an explicit jobs above the core count is honored (oversubscribed) *)
  let rs, s = Par.map_with_stats ~jobs:4 f xs in
  Alcotest.(check (list int)) "results in input order" (List.map f xs) rs;
  Alcotest.(check int) "four workers measured" 4 s.Par.jobs;
  Alcotest.(check int) "one stats row per worker" 4 (Array.length s.Par.workers);
  Alcotest.(check int) "every task claimed exactly once" 20
    (Array.fold_left (fun a w -> a + w.Par.tasks) 0 s.Par.workers);
  Array.iteri
    (fun i w ->
      Alcotest.(check int) "worker indexed" i w.Par.worker;
      Alcotest.(check int)
        (Printf.sprintf "W%d run histogram sums to its task count" i)
        w.Par.tasks
        (Array.fold_left ( + ) 0 w.Par.run_hist);
      Alcotest.(check bool) "nonnegative times" true
        (w.Par.busy_s >= 0. && w.Par.wait_s >= 0.))
    s.Par.workers;
  (* jobs never exceed the task count *)
  let _, s2 = Par.map_with_stats ~jobs:64 f [ 1; 2; 3 ] in
  Alcotest.(check int) "capped by task count" 3 s2.Par.jobs;
  (* the sequential path reports a single worker owning every task *)
  let _, s3 = Par.map_with_stats ~jobs:1 f xs in
  Alcotest.(check int) "sequential single worker" 1 (Array.length s3.Par.workers);
  Alcotest.(check int) "sequential tasks" 20 s3.Par.workers.(0).Par.tasks;
  (* the observer saw every fan-out, the sequential one included *)
  Alcotest.(check int) "observer notified" 3 (List.length !seen);
  (* the deterministic summary has one row per worker plus totals *)
  let txt = Par.render_stats s in
  Tutil.check_contains "summary row W0" txt "W0";
  Tutil.check_contains "summary row W3" txt "W3";
  Tutil.check_contains "summary totals" txt "total";
  Tutil.check_contains "summary trailer" txt "4 job(s), 20 task(s)"

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let test_flight () =
  let w = Ws.find "pverify" in
  let nprocs = 4 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let recorded = Sim.record prog ~nprocs in
  let layout = Layout.default prog ~block:64 in
  let max_addr = Layout.size layout in
  let run flight =
    let c = C.create ~max_addr (C.default_config ~nprocs ~block:64) in
    (Replay.simulate ?flight recorded.Sim.trace ~layout ~cache:c)
      .Replay.counts
  in
  let flight = Flight.create ~capacity:32 ~interval:512 () in
  let on = run (Some flight) in
  let off = run None in
  Alcotest.(check bool) "recorder never changes the simulation" true (on = off);
  let samples = Flight.samples flight in
  Alcotest.(check bool) "samples retained" true (samples <> []);
  Alcotest.(check bool) "ring bounded by capacity" true
    (List.length samples <= 32);
  let rec increasing = function
    | a :: (b :: _ as tl) ->
      a.Flight.s_event < b.Flight.s_event && increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "event indices strictly increase" true
    (increasing samples);
  (* the final sample carries the cumulative end-state counters *)
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check int) "last sample event index"
    (Cell_trace.length recorded.Sim.trace - 1)
    last.Flight.s_event;
  Alcotest.(check int) "final reads" off.C.reads last.Flight.s_reads;
  Alcotest.(check int) "final writes" off.C.writes last.Flight.s_writes;
  Alcotest.(check int) "final false sharing" off.C.false_sh
    last.Flight.s_false_sh;
  let d = Flight.digest flight in
  Alcotest.(check int) "digest events" last.Flight.s_event d.Flight.d_events;
  Alcotest.(check int) "digest retained" (List.length samples)
    d.Flight.d_retained;
  Alcotest.(check bool) "digest taken covers retained" true
    (d.Flight.d_taken >= d.Flight.d_retained);
  Alcotest.(check int) "digest cold" off.C.cold d.Flight.d_cold;
  Alcotest.(check int) "digest true sharing" off.C.true_sh d.Flight.d_true_sh;
  Alcotest.(check int) "digest false sharing" off.C.false_sh
    d.Flight.d_false_sh;
  Alcotest.(check bool) "hot block identified" true (d.Flight.d_hot_block >= 0);
  Alcotest.(check bool) "hot share in (0,1]" true
    (d.Flight.d_hot_share > 0. && d.Flight.d_hot_share <= 1.);
  (* reuse across runs: start resets the ring *)
  let again = run (Some flight) in
  Alcotest.(check bool) "reused recorder still agrees" true (again = off);
  Alcotest.(check int) "ring reset on reuse" d.Flight.d_retained
    (Flight.digest flight).Flight.d_retained;
  (* the render and JSON exports carry the digest *)
  Tutil.check_contains "render shows cadence" (Flight.render flight) "512";
  match Flight.to_json flight with
  | Fs_obs.Json.Obj fields ->
    Alcotest.(check bool) "json has samples" true
      (List.mem_assoc "samples" fields);
    Alcotest.(check bool) "json has rate" true
      (List.mem_assoc "mevents_per_s" fields)
  | _ -> Alcotest.fail "flight json is not an object"

let suite =
  [ Alcotest.test_case "span basics" `Quick test_span_basics;
    Alcotest.test_case "span errors and ambient recorder" `Quick
      test_span_errors_and_ambient;
    QCheck_alcotest.to_alcotest prop_span_nesting;
    Alcotest.test_case "pool instrumentation" `Quick test_par_stats;
    Alcotest.test_case "flight recorder" `Quick test_flight ]
