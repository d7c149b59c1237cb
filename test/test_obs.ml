(* Tests for the telemetry layer: the JSON tree and parser, the metrics
   registry, the phase profiler, the Chrome-trace timeline, the experiment
   emitters (every record round-trips through the parser), and the blame
   matrix's agreement with per-variable attribution. *)

open Fs_ir.Dsl
module Json = Fs_obs.Json
module Metrics = Fs_obs.Metrics
module Span = Fs_obs.Span
module Timeline = Fs_obs.Timeline
module Emit = Falseshare.Emit
module Blame = Falseshare.Blame
module Attribution = Falseshare.Attribution
module Sim = Falseshare.Sim
module E = Falseshare.Experiments
module Interp = Fs_interp.Interp
module Layout = Fs_layout.Layout
module C = Fs_cache.Mpcache
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads

(* the textbook false-sharing program: adjacent per-process counters *)
let fs_prog ~nprocs =
  Fs_ir.Validate.validate_exn
    (program ~name:"obs_test"
       ~globals:[ ("counter", arr int_t nprocs); ("total", int_t); ("l", lock_t) ]
       [ fn "main" []
           [ sfor "k" (i 0) (i 200) [ bump ((v "counter").%(pdv)) (i 1) ];
             barrier;
             lock (v "l");
             bump (v "total") (ld (v "counter").%(pdv));
             unlock (v "l") ] ])

let parse_ok what s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.fail (Printf.sprintf "%s: parse error %s in %s" what e s)

let geti what j path =
  let rec go j = function
    | [] -> ( match Json.get_int j with
      | Some n -> n
      | None -> Alcotest.fail (what ^ ": not an int"))
    | f :: rest -> (
      match Json.member f j with
      | Some j' -> go j' rest
      | None -> Alcotest.fail (Printf.sprintf "%s: missing field %s" what f))
  in
  go j path

(* ------------------------------------------------------------------ *)
(* The JSON tree, serializer, and parser                               *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int ]);
        ("floats", Json.List [ Json.Float 1.5; Json.Float (-0.25); Json.Float 1e-9 ]);
        ("escapes", Json.String "a\"b\\c\nd\te\r\x0c\x08 / é\xe2\x82\xac");
        ("empty obj", Json.Obj []);
        ("empty list", Json.List []);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [ ("x", Json.Int 1) ] ]) ]) ]
  in
  let check_same label s =
    match Json.of_string s with
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
    | Ok v' -> if v <> v' then Alcotest.fail (label ^ ": round-trip changed value")
  in
  check_same "compact" (Json.to_string v);
  check_same "pretty" (Json.to_string ~compact:false v)

let test_json_parser () =
  (* unicode escapes decode to UTF-8 *)
  (match Json.of_string "\"A\\u00e9\\u20ac\"" with
   | Ok (Json.String s) -> Alcotest.(check string) "\\u escapes" "A\xc3\xa9\xe2\x82\xac" s
   | _ -> Alcotest.fail "unicode escape");
  (* numbers without . or e are ints, others floats *)
  Alcotest.(check bool) "int" true (Json.of_string "42" = Ok (Json.Int 42));
  Alcotest.(check bool) "float" true (Json.of_string "4.5" = Ok (Json.Float 4.5));
  Alcotest.(check bool) "exp float" true (Json.of_string "1e2" = Ok (Json.Float 100.));
  (* errors *)
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "trailing garbage" true (is_err (Json.of_string "1 2"));
  Alcotest.(check bool) "unterminated string" true (is_err (Json.of_string {|"abc|}));
  Alcotest.(check bool) "bare word" true (is_err (Json.of_string "nope"));
  Alcotest.(check bool) "trailing comma" true (is_err (Json.of_string "[1,]"));
  Alcotest.(check bool) "empty input" true (is_err (Json.of_string "  "))

let test_json_accessors () =
  let j = parse_ok "accessors" {|{"a": 1, "b": 2.0, "c": "s", "d": [1], "e": true}|} in
  Alcotest.(check (option int)) "member+int" (Some 1)
    (Option.bind (Json.member "a" j) Json.get_int);
  Alcotest.(check (option int)) "integral float as int" (Some 2)
    (Option.bind (Json.member "b" j) Json.get_int);
  Alcotest.(check bool) "int as float" true
    (Option.bind (Json.member "a" j) Json.get_float = Some 1.0);
  Alcotest.(check (option string)) "string" (Some "s")
    (Option.bind (Json.member "c" j) Json.get_string);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.member "e" j) Json.get_bool);
  Alcotest.(check bool) "list" true
    (Option.bind (Json.member "d" j) Json.get_list = Some [ Json.Int 1 ]);
  Alcotest.(check bool) "missing member" true (Json.member "zz" j = None);
  Alcotest.(check bool) "member of non-obj" true (Json.member "a" (Json.Int 1) = None);
  (* non-finite floats serialize as null *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.float nan))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hits" ~labels:[ ("proc", "0"); ("kind", "read") ] in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  (* same name + same labels (any order) is the same instrument *)
  let c' = Metrics.counter m "hits" ~labels:[ ("kind", "read"); ("proc", "0") ] in
  Metrics.Counter.incr c';
  Alcotest.(check int) "shared counter" 6 (Metrics.Counter.value c);
  let g = Metrics.gauge m "temp" in
  Metrics.Gauge.set g 1.5;
  Alcotest.(check bool) "gauge" true (Metrics.Gauge.value g = 1.5);
  let h = Metrics.histogram m "lat" ~buckets:[ 1.; 10. ] in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 5.; 50. ];
  Alcotest.(check int) "hist count" 3 (Metrics.Histogram.count h);
  Alcotest.(check bool) "hist sum" true (Metrics.Histogram.sum h = 55.5);
  (match Metrics.Histogram.buckets h with
   | [ (1., 1); (10., 2); (inf, 3) ] when inf = infinity -> ()
   | bs ->
     Alcotest.fail
       (Printf.sprintf "cumulative buckets: got %d entries" (List.length bs)));
  let text = Metrics.render m in
  Tutil.check_contains "render" text "hits{kind=\"read\",proc=\"0\"} 6";
  Tutil.check_contains "render" text "lat_count";
  (* to_json parses and is an array of objects with names *)
  let j = parse_ok "metrics json" (Json.to_string (Metrics.to_json m)) in
  match Json.get_list j with
  | Some (_ :: _ as entries) ->
    List.iter
      (fun e ->
        match Option.bind (Json.member "name" e) Json.get_string with
        | Some _ -> ()
        | None -> Alcotest.fail "metric entry without name")
      entries
  | _ -> Alcotest.fail "metrics json not a non-empty array"

let test_metrics_listener () =
  let m = Metrics.create () in
  let l = Metrics.listener m in
  l.Fs_trace.Listener.access ~proc:0 ~write:true ~addr:0;
  l.Fs_trace.Listener.access ~proc:0 ~write:false ~addr:4;
  l.Fs_trace.Listener.access ~proc:0 ~write:false ~addr:8;
  l.Fs_trace.Listener.work ~proc:1 ~amount:7;
  l.Fs_trace.Listener.lock_grant ~proc:1 ~addr:0 ~from:(-1);
  l.Fs_trace.Listener.lock_grant ~proc:1 ~addr:0 ~from:0;
  let value name labels =
    Metrics.Counter.value (Metrics.counter m ~labels name)
  in
  Alcotest.(check int) "reads" 2
    (value "interp_accesses" [ ("kind", "read"); ("proc", "0") ]);
  Alcotest.(check int) "writes" 1
    (value "interp_accesses" [ ("kind", "write"); ("proc", "0") ]);
  Alcotest.(check int) "work" 7 (value "interp_work_units" [ ("proc", "1") ]);
  Alcotest.(check int) "uncontended grant" 1
    (value "interp_lock_grants" [ ("contended", "false"); ("proc", "1") ]);
  Alcotest.(check int) "contended grant" 1
    (value "interp_lock_grants" [ ("contended", "true"); ("proc", "1") ])

(* Prometheus exposition format escapes exactly backslash, double quote,
   and newline in label values; everything else (tabs, UTF-8) passes
   through raw.  OCaml's %S would decimal-escape the tab. *)
let test_prometheus_escaping () =
  let m = Metrics.create () in
  let labels = [ ("path", "a\"b\\c\nd\te") ] in
  Metrics.Counter.incr (Metrics.counter m "weird" ~labels);
  let text = Metrics.render m in
  Tutil.check_contains "escaped label" text
    "weird{path=\"a\\\"b\\\\c\\nd\te\"} 1";
  (* the JSON side stays raw — its own escaping is the serializer's job *)
  let j = parse_ok "metrics json" (Json.to_string (Metrics.to_json m)) in
  match Json.get_list j with
  | Some [ entry ] ->
    let v =
      Option.bind (Json.member "labels" entry) (fun l ->
          Option.bind (Json.member "path" l) Json.get_string)
    in
    Alcotest.(check (option string)) "raw in json" (Some "a\"b\\c\nd\te") v
  | _ -> Alcotest.fail "expected one metric"

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition: a hand-written checker of the format's
   structural rules, then a value round-trip through it.  The checker is
   independent of the renderer — it re-parses the text from scratch — so
   a renderer bug can't hide behind its own output. *)

(* the checker itself lives in Tutil, shared with the serve suite, which
   runs the daemon's GET /metrics through the same parser *)

let parse_exposition = Tutil.parse_exposition
let find_sample = Tutil.find_sample
let check_histogram = Tutil.check_histogram

let test_prometheus_exposition () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m "rt_hits" ~help:"Round-trip hits"
      ~labels:[ ("proc", "0") ]
  in
  Metrics.Counter.add c 7;
  Metrics.Counter.add (Metrics.counter m "rt_hits" ~labels:[ ("proc", "1") ]) 3;
  Metrics.Gauge.set (Metrics.gauge m "rt_temp" ~help:"A gauge") 1.5;
  let h = Metrics.histogram m "rt_lat" ~help:"A histogram" ~buckets:[ 0.1; 1.; 10. ] in
  List.iter (Metrics.Histogram.observe h) [ 0.05; 0.5; 5.; 50. ];
  let text = Metrics.render m in
  let types, helps, samples = parse_exposition "exposition" text in
  (* headers present with the right types, HELP before TYPE (checked by
     the parser), help only where registered *)
  Alcotest.(check (option string)) "counter type" (Some "counter")
    (Hashtbl.find_opt types "rt_hits");
  Alcotest.(check (option string)) "gauge type" (Some "gauge")
    (Hashtbl.find_opt types "rt_temp");
  Alcotest.(check (option string)) "histogram type" (Some "histogram")
    (Hashtbl.find_opt types "rt_lat");
  Alcotest.(check bool) "help recorded" true (Hashtbl.mem helps "rt_hits");
  (* value round-trip *)
  Alcotest.(check string) "counter 0" "7"
    (find_sample "rt" samples "rt_hits" [ ("proc", "0") ]);
  Alcotest.(check string) "counter 1" "3"
    (find_sample "rt" samples "rt_hits" [ ("proc", "1") ]);
  Alcotest.(check bool) "gauge" true
    (float_of_string (find_sample "rt" samples "rt_temp" []) = 1.5);
  check_histogram "rt_lat" samples "rt_lat" [];
  Alcotest.(check string) "hist count" "4"
    (find_sample "rt" samples "rt_lat_count" []);
  Alcotest.(check bool) "hist sum" true
    (float_of_string (find_sample "rt" samples "rt_lat_sum" []) = 55.55);
  Alcotest.(check string) "first bucket" "1"
    (find_sample "rt" samples "rt_lat_bucket" [ ("le", "0.1") ]);
  Alcotest.(check string) "+Inf bucket" "4"
    (find_sample "rt" samples "rt_lat_bucket" [ ("le", "+Inf") ]);
  (* labeled histograms keep their labels alongside le *)
  let hl =
    Metrics.histogram m "rt_lab" ~buckets:[ 1. ] ~labels:[ ("worker", "2") ]
  in
  Metrics.Histogram.observe hl 0.5;
  let _, _, samples = parse_exposition "exposition" (Metrics.render m) in
  check_histogram "rt_lab" samples "rt_lab" [ ("worker", "2") ]

let test_metric_name_validation () =
  let reject what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  let m = Metrics.create () in
  (* a dash or a leading digit would render an exposition no scraper
     accepts — rejected at registration, loudly *)
  reject "bad-name" (fun () -> ignore (Metrics.counter m "bad-name"));
  reject "1bad" (fun () -> ignore (Metrics.gauge m "1bad"));
  reject "empty name" (fun () -> ignore (Metrics.counter m ""));
  reject "sp ace" (fun () -> ignore (Metrics.histogram m "sp ace"));
  reject "bad-label" (fun () ->
      ignore (Metrics.counter m "fine" ~labels:[ ("bad-label", "v") ]));
  reject "9label" (fun () ->
      ignore (Metrics.gauge m "fine" ~labels:[ ("9label", "v") ]));
  (* a colon is legal in a metric name (recording rules) but not in a
     label name *)
  reject "co:lon" (fun () ->
      ignore (Metrics.counter m "fine" ~labels:[ ("co:lon", "v") ]));
  (* the error message names the offender so a failed startup is
     debuggable from the exception alone *)
  (match Metrics.counter m "bad-name" with
   | _ -> Alcotest.fail "accepted bad-name"
   | exception Invalid_argument msg ->
     Tutil.check_contains "message names the metric" msg "bad-name");
  (match Metrics.counter m "fine" ~labels:[ ("bad-label", "v") ] with
   | _ -> Alcotest.fail "accepted bad-label"
   | exception Invalid_argument msg ->
     Tutil.check_contains "message names the label" msg "bad-label");
  ignore (Metrics.counter m "ns:requests_total" ~labels:[ ("le_gal_1", "v") ]);
  ignore (Metrics.gauge m "_underscore_first");
  (* label values are unconstrained — escaping is the renderer's job *)
  ignore (Metrics.counter m "valued" ~labels:[ ("k", "any-thing: goes 9") ]);
  (* nothing invalid got registered along the way *)
  let types, _, _ = Tutil.parse_exposition "validated" (Metrics.render m) in
  Alcotest.(check bool) "valid names render" true
    (Hashtbl.mem types "ns:requests_total")

(* ------------------------------------------------------------------ *)
(* Span JSON round-trip: error-carrying spans and attribute strings
   full of quotes, newlines, and backslashes must survive the
   serializer and come back bit-identical through the parser. *)

let test_span_json_roundtrip () =
  let nasty = "a \"quoted\" value\nwith a newline\tand \\backslash\x01" in
  let r = Fs_obs.Span.create () in
  Fs_obs.Span.with_ r "outer" ~attrs:[ ("nasty", nasty) ] (fun () ->
      (match
         Fs_obs.Span.with_ r "failing" (fun () ->
             failwith "boom \"inner\"\nsecond line")
       with
      | () -> Alcotest.fail "inner span did not raise"
      | exception Failure _ -> ());
      Fs_obs.Span.with_ r "ok \"child\"" Fun.id);
  let text = Json.to_string (Fs_obs.Span.to_json r) in
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error m -> Alcotest.fail (Printf.sprintf "span json unparsable: %s" m)
  in
  let outer =
    match Json.get_list j with
    | Some [ o ] -> o
    | _ -> Alcotest.fail "expected one root span"
  in
  Alcotest.(check (option string)) "attr round-trips" (Some nasty)
    (Option.bind (Json.member "attrs" outer) (fun a ->
         Option.bind (Json.member "nasty" a) Json.get_string));
  let children =
    match Option.bind (Json.member "children" outer) Json.get_list with
    | Some kids -> kids
    | None -> Alcotest.fail "outer span lost its children"
  in
  (match children with
   | [ failing; ok ] ->
     (* with_ records [Printexc.to_string exn] as the "error" attribute;
        that exact string — Printexc's own escapes and all — must
        survive the trip through the JSON encoder and back *)
     let expect = Printexc.to_string (Failure "boom \"inner\"\nsecond line") in
     let err =
       Option.bind (Json.member "attrs" failing) (fun a ->
           Option.bind (Json.member "error" a) Json.get_string)
     in
     (match err with
      | Some e -> Alcotest.(check string) "error attr keeps the message" expect e
      | None -> Alcotest.fail "failing span has no error attr");
     Alcotest.(check (option string)) "quoted span name" (Some "ok \"child\"")
       (Option.bind (Json.member "name" ok) Json.get_string)
   | _ -> Alcotest.fail "expected two children");
  (* the same tree through the pretty-printer parses too *)
  match Json.of_string (Json.to_string ~compact:false (Fs_obs.Span.to_json r)) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("pretty span json unparsable: " ^ m)

let test_histogram_edges () =
  (* an empty registry renders as the empty exposition *)
  Alcotest.(check string) "empty registry" "" (Metrics.render (Metrics.create ()));
  let m = Metrics.create () in
  let h = Metrics.histogram m "edge" ~buckets:[ 1.; 10. ] in
  (* a negative observation lands in the first bucket and drags the sum
     negative — never dropped, never a crash *)
  Metrics.Histogram.observe h (-5.);
  (match Metrics.Histogram.buckets h with
   | [ (1., 1); (10., 1); (_, 1) ] -> ()
   | _ -> Alcotest.fail "negative observation not in first bucket");
  Alcotest.(check bool) "negative sum" true (Metrics.Histogram.sum h = -5.);
  (* an observation exactly on a bucket bound is inclusive (le semantics) *)
  Metrics.Histogram.observe h 1.0;
  (match Metrics.Histogram.buckets h with
   | (1., 2) :: _ -> ()
   | _ -> Alcotest.fail "exact bound not inclusive");
  (* absorb with mismatched bucket shape is a programming error *)
  (match Metrics.Histogram.absorb h ~counts:[| 1; 2 |] ~sum:3. with
   | () -> Alcotest.fail "absorb accepted mismatched buckets"
   | exception Invalid_argument _ -> ());
  (* matched absorb adds per-bucket counts and the sum *)
  Metrics.Histogram.absorb h ~counts:[| 1; 0; 2 |] ~sum:30.;
  Alcotest.(check int) "absorbed count" 5 (Metrics.Histogram.count h);
  Alcotest.(check bool) "absorbed sum" true (Metrics.Histogram.sum h = 26.);
  (* the negative-sum histogram still renders a valid exposition *)
  let _, _, samples = parse_exposition "edges" (Metrics.render m) in
  check_histogram "edge" samples "edge" []

(* ------------------------------------------------------------------ *)
(* Heatmap                                                             *)

let test_heatmap () =
  let grid =
    Fs_obs.Heatmap.render ~col_tick:2
      [| [| 0.0; 1.0; 1000.0 |]; [| 0.0; 0.0; 0.0 |] |]
  in
  (match String.split_on_char '\n' grid with
   | _ruler :: r0 :: r1 :: _legend ->
     Tutil.check_contains "row label" r0 "P0";
     (* zero cells are '.', the max is '@', small nonzero is distinct *)
     Alcotest.(check char) "zero cell" '.' r0.[String.length r0 - 3];
     Alcotest.(check char) "max cell" '@' r0.[String.length r0 - 1];
     Alcotest.(check bool) "small nonzero not blank" true
       (r0.[String.length r0 - 2] <> '.' && r0.[String.length r0 - 2] <> '@');
     Alcotest.(check string) "all-zero row" "..."
       (String.sub r1 (String.length r1 - 3) 3)
   | _ -> Alcotest.fail "unexpected grid shape");
  Alcotest.(check string) "empty grid" "" (Fs_obs.Heatmap.render [||]);
  let bars = Fs_obs.Heatmap.bars ~width:10 [ ("a", 10); ("bb", 5); ("c", 0) ] in
  Tutil.check_contains "full bar" bars "##########";
  Tutil.check_contains "half bar" bars "#####";
  Tutil.check_contains "counts shown" bars "10";
  Alcotest.(check string) "no rows" "" (Fs_obs.Heatmap.bars [])

let test_heatmap_edges () =
  (* a single-cell grid: the one value is the maximum, so it renders as
     the densest glyph and the legend pins the range to it *)
  let one = Fs_obs.Heatmap.render [| [| 5.0 |] |] in
  (match String.split_on_char '\n' one with
   | _ruler :: row :: legend :: _ ->
     Alcotest.(check char) "single cell is max glyph" '@'
       row.[String.length row - 1];
     Tutil.check_contains "legend upper bound" legend "=5.00"
   | _ -> Alcotest.fail "unexpected single-cell shape");
  (* an all-zero grid: every cell '.', and the legend's fixed format
     shows the degenerate 0.00 range rather than dividing by it *)
  let zero = Fs_obs.Heatmap.render [| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  (match String.split_on_char '\n' zero with
   | _ruler :: r0 :: r1 :: legend :: _ ->
     Alcotest.(check string) "zero row 0" ".."
       (String.sub r0 (String.length r0 - 2) 2);
     Alcotest.(check string) "zero row 1" ".."
       (String.sub r1 (String.length r1 - 2) 2);
     Tutil.check_contains "zero legend" legend "'@'=0.00"
   | _ -> Alcotest.fail "unexpected all-zero shape")

(* ------------------------------------------------------------------ *)
(* Timeline: structurally valid Chrome trace JSON                      *)

let test_timeline () =
  let nprocs = 4 in
  let prog = fs_prog ~nprocs in
  let layout = Layout.realize prog [] ~block:64 in
  let tl = Timeline.create ~nprocs in
  let _ = Tutil.run prog ~nprocs ~layout ~listener:(Timeline.listener tl) in
  Alcotest.(check bool) "recorded events" true (Timeline.events tl > 0);
  let j = parse_ok "trace json" (Json.to_string (Timeline.to_json tl)) in
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.get_list with
    | Some es -> es
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phases = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let str f =
        match Option.bind (Json.member f e) Json.get_string with
        | Some s -> s
        | None -> Alcotest.fail ("event without string field " ^ f)
      in
      let ph = str "ph" in
      Hashtbl.replace phases ph (1 + Option.value ~default:0 (Hashtbl.find_opt phases ph));
      ignore (str "name");
      if ph <> "M" then begin
        let ts = geti "event" e [ "ts" ] in
        Alcotest.(check bool) "ts >= 0" true (ts >= 0);
        ignore (geti "event" e [ "pid" ])
      end;
      if ph = "X" then
        Alcotest.(check bool) "dur >= 0" true (geti "event" e [ "dur" ] >= 0);
      if ph <> "M" && ph <> "X" && ph <> "i" then
        Alcotest.fail ("unexpected phase " ^ ph))
    events;
  (* one process_name metadata record per processor, plus thread names *)
  Alcotest.(check bool) "metadata events" true
    (Option.value ~default:0 (Hashtbl.find_opt phases "M") >= nprocs);
  Alcotest.(check bool) "duration slices" true (Hashtbl.mem phases "X");
  (* the program has one barrier: at least one release instant *)
  Alcotest.(check bool) "barrier instant" true (Hashtbl.mem phases "i")

let test_timeline_counter () =
  let tl = Timeline.create ~nprocs:2 in
  Alcotest.(check int) "fresh clock" 0 (Timeline.time tl);
  Timeline.counter tl ~name:"misses per epoch" ~ts:5
    ~values:[ ("false sharing", 3.0); ("cold", 1.0) ];
  let j = parse_ok "counter json" (Json.to_string (Timeline.to_json tl)) in
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.get_list with
    | Some es -> es
    | None -> Alcotest.fail "no traceEvents"
  in
  let counters =
    List.filter
      (fun e ->
        Option.bind (Json.member "ph" e) Json.get_string = Some "C")
      events
  in
  match counters with
  | [ e ] ->
    Alcotest.(check int) "ts" 5 (geti "counter" e [ "ts" ]);
    let v =
      Option.bind (Json.member "args" e) (fun a ->
          Option.bind (Json.member "false sharing" a) Json.get_float)
    in
    Alcotest.(check bool) "value" true (v = Some 3.0)
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 counter event, got %d" (List.length cs))

(* ------------------------------------------------------------------ *)
(* Emitters: every record round-trips through the parser               *)

let test_emit_sim_roundtrip () =
  let nprocs = 4 in
  let prog = fs_prog ~nprocs in
  let recorded = Sim.record prog ~nprocs in
  let unopt = Sim.cache_sim ~recorded prog [] ~nprocs ~block:64 in
  let j0 = Emit.sim ~workload:"obs_test" ~nprocs ~block:64 [ ("unoptimized", unopt) ] in
  let j = parse_ok "sim json" (Json.to_string j0) in
  Alcotest.(check int) "procs" nprocs (geti "sim" j [ "procs" ]);
  Alcotest.(check int) "block" 64 (geti "sim" j [ "block" ]);
  let versions =
    match Option.bind (Json.member "versions" j) Json.get_list with
    | Some [ v ] -> v
    | _ -> Alcotest.fail "expected one version"
  in
  let c = unopt.Sim.counts in
  Alcotest.(check int) "accesses" (C.accesses c) (geti "sim" versions [ "counts"; "accesses" ]);
  Alcotest.(check int) "misses" (C.misses c) (geti "sim" versions [ "counts"; "misses" ]);
  Alcotest.(check int) "false sharing" c.C.false_sh
    (geti "sim" versions [ "counts"; "false_sharing" ]);
  Alcotest.(check int) "layout bytes" unopt.Sim.layout_bytes
    (geti "sim" versions [ "layout_bytes" ])

let test_emit_records_roundtrip () =
  let cell = { E.accesses = 100; misses = 10; false_sharing = 5 } in
  let fig3 =
    Emit.fig3
      [ { E.name = "w"; procs = 4; block = 16; unopt = cell;
          compiler = { cell with false_sharing = 1 } } ]
  in
  let j = parse_ok "fig3" (Json.to_string fig3) in
  (match Json.get_list j with
   | Some [ row ] ->
     Alcotest.(check int) "unopt fs" 5 (geti "fig3" row [ "unoptimized"; "false_sharing" ]);
     Alcotest.(check int) "compiler fs" 1 (geti "fig3" row [ "compiler"; "false_sharing" ])
   | _ -> Alcotest.fail "fig3 rows");
  let table2 =
    Emit.table2
      [ { E.name = "w"; total_reduction = 0.5; group_transpose = 0.25;
          indirection = 0.1; pad_align = 0.1; locks = 0.05 } ]
  in
  (match Json.get_list (parse_ok "table2" (Json.to_string table2)) with
   | Some [ row ] ->
     Alcotest.(check bool) "total" true
       (Option.bind (Json.member "total_reduction" row) Json.get_float = Some 0.5)
   | _ -> Alcotest.fail "table2 rows");
  let series =
    Emit.series [ { E.workload = "w"; version = W.C; points = [ (1, 1.0); (4, 2.5) ] } ]
  in
  (match Json.get_list (parse_ok "series" (Json.to_string series)) with
   | Some [ s ] -> (
     match Option.bind (Json.member "points" s) Json.get_list with
     | Some [ _; p ] ->
       Alcotest.(check int) "procs" 4 (geti "series" p [ "procs" ]);
       Alcotest.(check bool) "speedup" true
         (Option.bind (Json.member "speedup" p) Json.get_float = Some 2.5)
     | _ -> Alcotest.fail "series points")
   | _ -> Alcotest.fail "series rows");
  let table3 = Emit.table3 [ { E.name = "w"; results = [ (W.P, 3.5, 12) ] } ] in
  (match Json.get_list (parse_ok "table3" (Json.to_string table3)) with
   | Some [ row ] -> (
     match Option.bind (Json.member "results" row) Json.get_list with
     | Some [ r ] -> Alcotest.(check int) "at procs" 12 (geti "table3" r [ "at_procs" ])
     | _ -> Alcotest.fail "table3 results")
   | _ -> Alcotest.fail "table3 rows");
  let stats =
    Emit.stats
      { E.fs_share_of_misses_128 = 0.8; fs_removed_128 = 0.9;
        other_miss_increase_128 = 0.7; total_miss_reduction_64 = 0.6 }
  in
  let j = parse_ok "stats" (Json.to_string stats) in
  Alcotest.(check bool) "stat field" true
    (Option.bind (Json.member "fs_removed_128" j) Json.get_float = Some 0.9);
  let exec = Emit.exec [ { E.name = "w"; improvement = 0.5; at_procs = 8 } ] in
  (match Json.get_list (parse_ok "exec" (Json.to_string exec)) with
   | Some [ row ] -> Alcotest.(check int) "at procs" 8 (geti "exec" row [ "at_procs" ])
   | _ -> Alcotest.fail "exec rows")

let test_emit_report_roundtrip () =
  let nprocs = 4 in
  let prog = fs_prog ~nprocs in
  let report = Fs_transform.Transform.plan prog ~nprocs in
  let j = parse_ok "report" (Json.to_string (Emit.transform_report report)) in
  match
    ( Option.bind (Json.member "entries" j) Json.get_list,
      Option.bind (Json.member "plan" j) Json.get_list )
  with
  | Some entries, Some _ ->
    Alcotest.(check int) "one entry per report line"
      (List.length report.Fs_transform.Transform.entries)
      (List.length entries);
    List.iter
      (fun e ->
        match
          Option.bind (Json.member "decision" e) (fun d ->
              Option.bind (Json.member "kind" d) Json.get_string)
        with
        | Some _ -> ()
        | None -> Alcotest.fail "entry without decision kind")
      entries
  | _ -> Alcotest.fail "report json shape"

(* ------------------------------------------------------------------ *)
(* Blame                                                               *)

let test_blame_agrees_with_attribution () =
  let nprocs = 4 and block = 64 in
  let prog = fs_prog ~nprocs in
  let recorded = Sim.record prog ~nprocs in
  let blame = Blame.analyze ~recorded prog [] ~nprocs ~block in
  let attr = Attribution.attribute ~recorded prog [] ~nprocs ~block in
  Alcotest.(check bool) "found invalidations" true (blame.Blame.rows <> []);
  List.iter
    (fun (row : Blame.var_row) ->
      let a =
        match List.find_opt (fun (a : Attribution.row) -> a.var = row.var) attr with
        | Some a -> a
        | None -> Alcotest.fail ("blame var missing from attribution: " ^ row.var)
      in
      Alcotest.(check int)
        (row.var ^ " invalidations")
        a.Attribution.counts.C.invalidations row.invalidations;
      (* internal consistency: matrix, pairs, and cause split all sum up *)
      let msum =
        Array.fold_left (fun acc r -> Array.fold_left ( + ) acc r) 0 row.matrix
      in
      Alcotest.(check int) (row.var ^ " matrix sum") row.invalidations msum;
      Alcotest.(check int)
        (row.var ^ " cause split")
        row.invalidations
        (row.by_upgrade + row.by_write_miss);
      let psum =
        List.fold_left
          (fun acc (p : Blame.pair) -> acc + p.upgrades + p.write_misses)
          0 row.pairs
      in
      Alcotest.(check int) (row.var ^ " pair sum") row.invalidations psum;
      (* nobody invalidates their own copy *)
      Array.iteri (fun s r -> Alcotest.(check int) "diagonal" 0 r.(s)) row.matrix)
    blame.Blame.rows;
  (* hot blocks: owners exist, cell ranges sane, render works *)
  List.iter
    (fun (h : Blame.hot_block) ->
      Alcotest.(check bool) "cell range" true (h.cell_lo <= h.cell_hi))
    blame.Blame.hot;
  Tutil.check_contains "render" (Blame.render blame) "invalidation blame matrix";
  (* and the JSON emitter parses back with matching totals *)
  let j = parse_ok "blame json" (Json.to_string (Emit.blame blame)) in
  match Option.bind (Json.member "vars" j) Json.get_list with
  | Some vars ->
    Alcotest.(check int) "vars emitted" (List.length blame.Blame.rows)
      (List.length vars)
  | None -> Alcotest.fail "blame json vars"

(* ------------------------------------------------------------------ *)
(* Pipeline: one instrumented run                                      *)

let test_pipeline () =
  let nprocs = 4 in
  let prog = fs_prog ~nprocs in
  let recorder = Span.create () in
  Span.set_current (Some recorder);
  let r =
    Fun.protect
      ~finally:(fun () -> Span.set_current None)
      (fun () -> Falseshare.Pipeline.run prog ~nprocs ~block:64)
  in
  (* one pipeline span whose children are the seven stages, in order,
     each noting its event count *)
  let spans = Span.spans recorder in
  let pipeline =
    match List.filter (fun (sp : Span.span) -> sp.name = "pipeline") spans with
    | [ sp ] -> sp
    | l -> Alcotest.fail (Printf.sprintf "%d pipeline spans" (List.length l))
  in
  let stages =
    List.filter (fun (sp : Span.span) -> sp.parent = pipeline.id) spans
  in
  Alcotest.(check (list string)) "stage spans"
    [ "pdv"; "non-concurrency"; "summary"; "transform"; "layout"; "interp";
      "replay+cache" ]
    (List.map (fun (sp : Span.span) -> sp.name) stages);
  let events name =
    let sp = List.find (fun (sp : Span.span) -> sp.name = name) stages in
    match List.assoc_opt "events" sp.attrs with
    | Some v -> int_of_string v
    | None -> Alcotest.fail (name ^ ": no events attribute")
  in
  Alcotest.(check int) "pdv events = functions"
    (List.length prog.Fs_ir.Ast.funcs) (events "pdv");
  ignore (events "non-concurrency");
  ignore (events "summary");
  Alcotest.(check int) "transform events = plan actions"
    (List.length r.report.Fs_transform.Transform.plan) (events "transform");
  Alcotest.(check int) "layout events = layout bytes"
    r.cache.Sim.layout_bytes (events "layout");
  Alcotest.(check bool) "interp records events" true (events "interp" > 0);
  Alcotest.(check int) "replay+cache replays what interp recorded"
    (events "interp") (events "replay+cache");
  (* metrics carry the cache's totals *)
  let total = ref 0 in
  for p = 0 to nprocs - 1 do
    total :=
      !total
      + Metrics.Counter.value
          (Metrics.counter r.metrics ~labels:[ ("proc", string_of_int p) ]
             "cache_accesses")
  done;
  Alcotest.(check int) "metrics match cache" (C.accesses r.cache.Sim.counts) !total

(* The pipeline's interp_* counters against the per-event reference: for
   every workload, version and block size, the interp_* entries of
   [Pipeline.run]'s registry must render byte for byte like a fresh
   registry fed by [Metrics.listener] through a listener replay of the
   same recording under the same layout.  The access counters include
   the pointer loads an indirection layout injects, so at least one case
   must run under such a layout. *)
let test_pipeline_interp_metrics () =
  let nprocs = 4 and scale = 1 in
  let interp_entries metrics =
    match Metrics.to_json metrics with
    | Json.List entries ->
      Json.to_string
        (Json.List
           (List.filter
              (fun e ->
                match Option.bind (Json.member "name" e) Json.get_string with
                | Some n -> String.starts_with ~prefix:"interp_" n
                | None -> false)
              entries))
    | _ -> Alcotest.fail "metrics json is not a list"
  in
  (* series every run of the suite must reach somewhere *)
  let covered =
    [ {|"interp_barrier_releases"|}; {|"interp_lock_waits"|};
      {|"contended":"true"|}; {|"contended":"false"|} ]
  in
  let indirect = ref false and seen = Hashtbl.create 8 in
  List.iter
    (fun (w : W.t) ->
      let prog = w.build ~nprocs ~scale in
      let sched = if w.dynamic then Some (Fs_sched.Sched.seeded 7) else None in
      let trace = (Sim.record ?sched prog ~nprocs).Sim.trace in
      List.iter
        (fun version ->
          let plan = E.plan_for w version prog ~nprocs ~scale in
          List.iter
            (fun block ->
              let what =
                Printf.sprintf "%s/%s b=%d" w.name
                  (W.version_to_string version) block
              in
              let layout = Layout.realize prog plan ~block in
              if
                List.exists
                  (fun (v, _) -> Array.length (Layout.lookup layout v).extra > 0)
                  prog.Fs_ir.Ast.globals
              then indirect := true;
              let reference = Metrics.create () in
              Tutil.listener_replay trace ~layout
                ~listener:(Metrics.listener reference);
              let r = Falseshare.Pipeline.run ?sched ~plan prog ~nprocs ~block in
              let got = interp_entries r.Falseshare.Pipeline.metrics in
              Alcotest.(check string) what (interp_entries reference) got;
              List.iter
                (fun needle ->
                  if Tutil.contains got needle then Hashtbl.replace seen needle ())
                covered)
            [ 16; 128 ])
        w.versions)
    Ws.every;
  Alcotest.(check bool) "an indirection layout was covered" true !indirect;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " covered") true (Hashtbl.mem seen needle))
    covered

(* ------------------------------------------------------------------ *)
(* Edit distance (CLI suggestions)                                     *)

let test_strdist () =
  let d = Fs_util.Strdist.levenshtein in
  Alcotest.(check int) "equal" 0 (d "maxflow" "maxflow");
  Alcotest.(check int) "deletion" 1 (d "maxfow" "maxflow");
  Alcotest.(check int) "substitution" 1 (d "maxflaw" "maxflow");
  Alcotest.(check int) "empty" 7 (d "" "maxflow");
  let names = [ "maxflow"; "pverify"; "topopt"; "water" ] in
  Alcotest.(check (list string)) "close match" [ "maxflow" ]
    (Fs_util.Strdist.suggest "maxfow" names);
  Alcotest.(check (list string)) "case-insensitive" [ "water" ]
    (Fs_util.Strdist.suggest "WATER" names);
  Alcotest.(check (list string)) "no match" []
    (Fs_util.Strdist.suggest "zzzzzz" names)

let suite =
  [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "metrics instruments" `Quick test_metrics_instruments;
    Alcotest.test_case "metrics listener" `Quick test_metrics_listener;
    Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "metric name validation" `Quick test_metric_name_validation;
    Alcotest.test_case "span json round-trip" `Quick test_span_json_roundtrip;
    Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
    Alcotest.test_case "heatmap" `Quick test_heatmap;
    Alcotest.test_case "heatmap edges" `Quick test_heatmap_edges;
    Alcotest.test_case "timeline chrome trace" `Quick test_timeline;
    Alcotest.test_case "timeline counter track" `Quick test_timeline_counter;
    Alcotest.test_case "emit sim round-trip" `Quick test_emit_sim_roundtrip;
    Alcotest.test_case "emit records round-trip" `Quick test_emit_records_roundtrip;
    Alcotest.test_case "emit report round-trip" `Quick test_emit_report_roundtrip;
    Alcotest.test_case "blame vs attribution" `Quick test_blame_agrees_with_attribution;
    Alcotest.test_case "pipeline" `Quick test_pipeline;
    Alcotest.test_case "pipeline interp metrics = listener" `Slow
      test_pipeline_interp_metrics;
    Alcotest.test_case "strdist" `Quick test_strdist ]
