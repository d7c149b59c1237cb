(* The repo benchmark: four workloads, each driven from this one process
   by calling the layers' public functions and timing each op from
   outside.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   --cli FALSESHARE_CLI --expected FILE --work DIR
     bench.exe expected --sources DIR     (prints the reference outputs)

   [run] prints a human-readable report and, as its last line, one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones, measured with tracing off; with
   --trace 1 they are the per-layer ledger from a traced run, read from
   an [Fs_obs.Span] recorder installed around the same ops (see
   NOTES.md). *)

module Sim = Falseshare.Sim
module Pipeline = Falseshare.Pipeline
module T = Fs_transform.Transform
module Layout = Fs_layout.Layout
module C = Fs_cache.Mpcache
module Ct = Fs_trace.Cell_trace
module Replay = Fs_replay.Replay
module Ksr = Fs_machine.Ksr
module Metrics = Fs_obs.Metrics
module Json = Fs_obs.Json
module Span = Fs_obs.Span
module Rng = Fs_util.Rng
module X = Expected

let now = Unix.gettimeofday

(* a span around a public call, carrying the work it does as an
   attribute; just the call when no recorder is installed *)
let span ?(events = 0) name f =
  Span.timed name (fun () ->
      if events > 0 then Span.note "events" (string_of_int events);
      f ())

(* [f] with the recorder taken off: warm-up passes are not traced *)
let untraced f =
  let saved = Span.current () in
  Span.set_current None;
  Fun.protect ~finally:(fun () -> Span.set_current saved) f

(* ------------------------------------------------------------------ *)
(* Small helpers                                                        *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile l q =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let above l x = List.length (List.filter (fun v -> v > x) l)

let sum = List.fold_left ( +. ) 0.

let maximum = List.fold_left Float.max 0.

(* peak resident set of a process, from /proc *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    let kb = ref 0. in
    List.iter
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          kb :=
            float_of_string
              (String.trim (List.hd (String.split_on_char 'k' (String.trim v))))
        | _ -> ())
      (String.split_on_char '\n' text);
    !kb /. 1024.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let mkdir_p path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

(* [seed] mod [n], never negative *)
let pick seed n = ((seed mod n) + n) mod n

let digest keys = Digest.to_hex (Digest.string (String.concat "," keys))

(* the seeded order of one cycle of [n] ops *)
let shuffled rng n =
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

(* ------------------------------------------------------------------ *)
(* Results                                                              *)

type metric = string * float * string  (* name, value, unit *)

(* a metric that could not be measured (a division by an empty sample,
   say) is printed as 0 and makes the run incorrect *)
let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let unmeasured =
    List.filter_map
      (fun (name, v, _) -> if Float.is_finite v then None else Some name)
      metrics
  in
  if unmeasured <> [] then
    Printf.printf "not measured: %s\n" (String.concat ", " unmeasured);
  let correct = correct && unmeasured = [] in
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (value v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Closed-loop workloads                                                *)

(* One op of a closed loop: calls into the layers, each wrapped in a
   span when a recorder is installed, and returns the output checked
   against the reference. *)
type op = {
  key : string;
  events : int;
  expect : X.checks;
  run : unit -> X.checks;
}

type closed = {
  ops : op array;                  (* one cycle *)
  order : Rng.t -> int array;      (* the seeded order of a cycle *)
  probes : unit -> bool list;      (* extra layer calls of a traced run, checked *)
  layers : string list;            (* the layer spans coverage sums *)
  notes : string list;
}

type sample = { lat : float; ok : bool; events : int; key : string; got : X.checks }

let min_samples = 110

let run_op (o : op) =
  match o.run () with
  | got -> got
  | exception e ->
    Printf.eprintf "op %s raised %s\n%!" o.key (Printexc.to_string e);
    []

(* ops in seeded cycle order until [seconds] have passed and at least
   [min_samples] ops ran, finishing the cycle under way so every run
   measures the same mix; or exactly [count] ops *)
let closed_loop ?count ?(min = min_samples) (w : closed) ~seed ~seconds =
  let rng = Rng.create seed in
  let n = Array.length w.ops in
  let cycle = ref [||] in
  let samples = ref [] and cycles = ref [] in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let i = ref 0 and cycle_start = ref t0 in
  let continue () =
    match count with
    | Some c -> !i < c
    | None -> now () < deadline || !i < min || !i mod n <> 0
  in
  while continue () do
    if !i mod n = 0 then begin
      cycle := w.order rng;
      cycle_start := now ()
    end;
    let o = w.ops.(!cycle.(!i mod n)) in
    let s = now () in
    let got = run_op o in
    let lat = now () -. s in
    samples :=
      { lat; ok = got = o.expect; events = o.events; key = o.key; got }
      :: !samples;
    incr i;
    if !i mod n = 0 then cycles := (now () -. !cycle_start) :: !cycles
  done;
  (List.rev !samples, now () -. t0, !cycles)

let sequence_digest (w : closed) ~seed =
  let rng = Rng.create seed in
  let cycle () = Array.to_list (Array.map (fun k -> w.ops.(k).key) (w.order rng)) in
  let first = cycle () in
  digest (first @ cycle ())

(* ------------------------------------------------------------------ *)
(* analyze: Pipeline.run over five programs in a fixed cycle            *)

(* the spans [Pipeline.run] emits, one per layer it calls *)
let pipeline_layers =
  [ "pdv"; "non-concurrency"; "summary"; "transform"; "layout"; "interp";
    "replay+cache" ]

let analyze_setup ~expected ~seed () =
  let sched_seed = Spec.sched_seeds.(pick seed (Array.length Spec.sched_seeds)) in
  let block = Spec.analyze_block in
  let progs =
    List.map
      (fun (p : Spec.prog) ->
        let sched_int = if Spec.dynamic p then Some sched_seed else None in
        let key = Spec.analyze_key p ~sched:sched_int in
        (p, Spec.build p, Option.map Fs_sched.Sched.seeded sched_int, key,
         X.find expected key))
      Spec.analyze_progs
  in
  let ops =
    List.map
      (fun (p, prog, sched, key, e) ->
        let run () =
          let r = Pipeline.run ?sched prog ~nprocs:p.Spec.nprocs ~block in
          [ ("run", X.of_counts r.Pipeline.cache.Sim.counts) ]
        in
        { key; events = e.X.events; expect = e.X.checks; run })
      progs
    |> Array.of_list
  in
  (* the two consumers [Pipeline.run] feeds from one replay walk, each
     timed alone on its own walk: the block-tracking cache and the
     per-event metrics listener *)
  let probe ((p : Spec.prog), prog, sched, _, e) =
    let nprocs = p.nprocs in
    let layout = Layout.realize prog (T.plan prog ~nprocs).T.plan ~block in
    let trace = (Sim.record ?sched prog ~nprocs).Sim.trace in
    let tracked =
      span "replay.tracked" ~events:e.X.events (fun () ->
          let cache =
            C.create ~track_blocks:true ~max_addr:(Layout.size layout)
              (C.default_config ~nprocs ~block)
          in
          Replay.replay_to_sink trace ~layout ~sink:(C.sink cache);
          C.counts cache)
    in
    span "obs.metrics_replay" ~events:e.X.events (fun () ->
        Replay.replay trace ~layout ~listener:(Metrics.listener (Metrics.create ())));
    [ ("run", X.of_counts tracked) ] = e.X.checks
  in
  (* warm-up: the cycle once, untimed *)
  untraced (fun () -> Array.iter (fun o -> ignore (o.run ())) ops);
  let n = Array.length ops in
  {
    ops;
    (* a fixed cycle; the seed picks where it starts *)
    order = (fun _ -> Array.init n (fun k -> pick (k + seed) n));
    probes = (fun () -> List.map probe progs);
    layers = pipeline_layers;
    notes = [ Printf.sprintf "taskbag sched_seed: %d" sched_seed ];
  }

(* ------------------------------------------------------------------ *)
(* sweep and stream: traces recorded once in set-up                     *)

type recording = {
  p : Spec.prog;
  prog : Fs_ir.Ast.program;
  recorded : Sim.recorded;
  plans : (Spec.version * Fs_layout.Plan.t) list;
}

let record_all progs =
  List.map
    (fun (p : Spec.prog) ->
      let prog = Spec.build p in
      let recorded =
        Span.timed "interp" (fun () ->
            let r = Sim.record prog ~nprocs:p.nprocs in
            Span.note "events" (string_of_int (Ct.length r.Sim.trace));
            r)
      in
      let plans = List.map (fun v -> (v, X.plan_of p prog v)) Spec.versions in
      { p; prog; recorded; plans })
    progs

(* one replay of a recorded trace under one layout: [Sim.cache_sim
   ~recorded] takes the fused loop *)
let fused_op ~expected (r : recording) v block =
  let plan = List.assoc v r.plans in
  let key = Spec.replay_key r.p v ~block in
  let e = X.find expected key in
  let run () =
    span "replay.fused" ~events:e.X.events (fun () ->
        let c = Sim.cache_sim ~recorded:r.recorded r.prog plan ~nprocs:r.p.nprocs ~block in
        [ ("run", X.of_counts c.Sim.counts) ])
  in
  { key; events = e.X.events; expect = e.X.checks; run }

let sweep_setup ~expected () =
  let recs = record_all Spec.replay_progs in
  let machine (r : recording) v =
    let plan = List.assoc v r.plans in
    let e = X.find expected (Spec.machine_key r.p v) in
    let run () =
      span "machine" ~events:e.X.events (fun () ->
          let m =
            (Sim.machine_sim ~recorded:r.recorded r.prog plan ~nprocs:r.p.nprocs)
              .Sim.machine
          in
          [ ("cycles", [ m.Ksr.cycles ]); ("cache", X.of_counts m.Ksr.cache) ])
    in
    { key = Spec.machine_key r.p v; events = e.X.events; expect = e.X.checks; run }
  in
  (* one version pass: the block sweep, then the KSR2 run *)
  let passes =
    List.concat_map
      (fun r ->
        List.map
          (fun v ->
            (List.map (fused_op ~expected r v) Spec.sweep_blocks, machine r v))
          Spec.versions)
      recs
  in
  let ops =
    Array.of_list
      (List.concat_map (fun (sweep, m) -> sweep @ [ m ]) passes)
  in
  let per_pass = List.length Spec.sweep_blocks + 1 in
  let npasses = List.length passes in
  (* warm-up: each version pass once at one block, then its KSR2 run *)
  untraced (fun () ->
      List.iter
        (fun (sweep, m) ->
          ignore ((List.hd sweep).run ());
          ignore (m.run ()))
        passes);
  let order rng =
    (* seeded pass order and block order; the machine op ends its pass *)
    let passes = shuffled rng npasses in
    Array.concat
      (Array.to_list
         (Array.map
            (fun pass ->
              let blocks = shuffled rng (per_pass - 1) in
              Array.append
                (Array.map (fun b -> (pass * per_pass) + b) blocks)
                [| (pass * per_pass) + per_pass - 1 |])
            passes))
  in
  (* the layout each op realizes inside [Sim.cache_sim], timed alone *)
  let probes () =
    List.iter
      (fun r ->
        List.iter
          (fun (_, plan) ->
            List.iter
              (fun block -> ignore (span "layout" (fun () -> Layout.realize r.prog plan ~block)))
              Spec.sweep_blocks)
          r.plans)
      recs;
    []
  in
  { ops; order; probes; layers = [ "replay.fused"; "machine" ]; notes = [] }

let stream_setup ~expected ~work () =
  let recs = record_all Spec.stream_progs in
  let block = Spec.stream_block in
  let serial = ref 0 in
  (* a fresh name each time: renaming over an existing file would make
     the filesystem flush it, timing the disk instead of the encoder *)
  let with_fresh_path f =
    incr serial;
    let path = Filename.concat work (Printf.sprintf "stream-%d.fstrace" !serial) in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)
  in
  let op (r : recording) v =
    let nprocs = r.p.nprocs in
    let layout = Layout.realize r.prog (List.assoc v r.plans) ~block in
    let config = C.default_config ~nprocs ~block in
    let key = Spec.replay_key r.p v ~block in
    let e = X.find expected key in
    let events = e.X.events and trace = r.recorded.Sim.trace in
    let run () =
      with_fresh_path (fun path ->
          span "trace.encode" ~events (fun () ->
              Ct.write_file trace path;
              Span.note "bytes" (string_of_int (Unix.stat path).Unix.st_size));
          let counts =
            span "replay.stream" ~events (fun () ->
                let s = Ct.of_file_stream path in
                Fun.protect
                  ~finally:(fun () -> Ct.Stream.close s)
                  (fun () ->
                    (Replay.simulate_sharded_stream s ~shards:1 ~layout ~config)
                      .Replay.counts))
          in
          [ ("run", X.of_counts counts) ])
    in
    (* the decoder alone, and the in-memory fused replay the streamed
       rate is compared with, on the same trace *)
    let probe () =
      with_fresh_path (fun path ->
          Ct.write_file trace path;
          span "trace.decode" ~events (fun () ->
              let s = Ct.of_file_stream path in
              Fun.protect
                ~finally:(fun () -> Ct.Stream.close s)
                (fun () -> Ct.Stream.iter_chunks (fun _ _ -> ()) s)));
      let f = fused_op ~expected r v block in
      f.run () = f.expect
    in
    ({ key; events; expect = e.X.checks; run }, probe)
  in
  let pairs =
    List.concat_map (fun r -> List.map (op r) Spec.versions) recs
  in
  let ops = Array.of_list (List.map fst pairs) in
  (* warm-up: each trace written and streamed once *)
  untraced (fun () ->
      Array.iteri
        (fun k o -> if k mod List.length Spec.versions = 0 then ignore (o.run ()))
        ops);
  let n = Array.length ops in
  {
    ops;
    order = (fun rng -> shuffled rng n);
    probes = (fun () -> List.map (fun (_, probe) -> probe ()) pairs);
    layers = [ "trace.encode"; "replay.stream" ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* serve: an open loop against a falseshare serve daemon                *)

type kind = {
  kkey : string;
  endpoint : string;
  body : top:int -> string;
  kevents : int;
  kexpect : X.checks;
}

let checks_of_payload endpoint result =
  let get name =
    match Json.member name result with
    | Some j -> X.of_json_counts j
    | None -> failwith ("payload without " ^ name)
  in
  match endpoint with
  | "analyze" ->
    List.map
      (fun v ->
        let name =
          Option.value ~default:"?"
            (Option.bind (Json.member "version" v) Json.get_string)
        in
        (name, X.of_json_counts (Option.get (Json.member "counts" v))))
      (Option.value ~default:[]
         (Option.bind (Json.member "versions" result) Json.get_list))
  | "hotlines" -> [ ("total", get "total") ]
  | "repair" -> [ ("initial", get "initial"); ("final", get "final") ]
  | ep -> failwith ("no checks for " ^ ep)

let is_source k = find_sub k.kkey "/source/" <> None

let registered_body (p : Spec.prog) ~top =
  Printf.sprintf {|{"workload":%S,"nprocs":%d,"scale":%d,"block":%d,"top":%d}|}
    p.wname p.nprocs p.scale Spec.analyze_block top

let serve_kinds ~expected ~sources_dir =
  let registered =
    List.map
      (fun (endpoint, p) ->
        let e = X.find expected (Spec.serve_key endpoint p) in
        {
          kkey = Spec.serve_key endpoint p;
          endpoint;
          body = registered_body p;
          kevents = e.X.events;
          kexpect = e.X.checks;
        })
      Spec.serve_registered
  in
  let sources =
    List.map
      (fun file ->
        let src =
          In_channel.with_open_bin (Filename.concat sources_dir file)
            In_channel.input_all
        in
        let e = X.find expected (Spec.source_key file) in
        {
          kkey = Spec.source_key file;
          endpoint = "analyze";
          body =
            (fun ~top ->
              Json.to_string
                (Json.Obj
                   [ ("source", Json.String src);
                     ("nprocs", Json.Int Spec.source_nprocs);
                     ("block", Json.Int Spec.analyze_block);
                     ("top", Json.Int top) ]));
          kevents = e.X.events;
          kexpect = e.X.checks;
        })
      Spec.serve_sources
  in
  Array.of_list (registered @ sources)

(* tops key the requests: every measured miss gets a fresh one; the
   warm-up pass files its answers under [warm_top], which the repeated
   requests then hit *)
let first_top = 64
let warm_top = 10_000
let prime_top = 9_999

type daemon = { pid : int; port : int }

(* daemons still running, killed at exit whatever ends the run; a
   clean stop goes through /quitquitquit *)
let running = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !running)

let http ~port ?body path =
  let status, _, resp = Fs_serve.Http.request ~port ?body path in
  (status, resp)

let start_daemon ~cli ~work =
  let cache = Filename.concat work "serve-cache" in
  rm_rf cache;
  let log = Filename.concat work "daemon.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--port"; "0"; "--workers"; "2"; "--jobs"; "1";
         "--cache-dir"; cache |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  running := pid :: !running;
  let marker = "http://127.0.0.1:" in
  let rec wait_port tries =
    let text = In_channel.with_open_text log In_channel.input_all in
    match find_sub text marker with
    | Some i ->
      let j = ref (i + String.length marker) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string (String.sub text (i + String.length marker) (!j - i - String.length marker))
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "falseshare serve exited during start-up");
      if tries = 0 then failwith "falseshare serve did not start";
      (* a fine poll: its step is part of the measured set-up time *)
      Unix.sleepf 0.001;
      wait_port (tries - 1)
  in
  let port = wait_port 20_000 in
  { pid; port }

let stop_daemon d =
  (try ignore (http ~port:d.port ~body:"" "/quitquitquit") with _ -> ());
  ignore (Unix.waitpid [] d.pid);
  running := List.filter (( <> ) d.pid) !running

let statusz d =
  let _, body = http ~port:d.port "/statusz" in
  match Json.of_string body with Ok j -> j | Error m -> failwith m

let status_int j path =
  let rec go j = function
    | [] -> Json.get_int j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0 (go j path)

let metric_value d name =
  let _, text = http ~port:d.port "/metrics" in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string v
      | _ -> acc)
    0. (String.split_on_char '\n' text)

(* one request of the open loop *)
type request = { due : float; kind : int; top : int }

type outcome = {
  req : request;
  picked : float;  (* when a connection slot took it *)
  sent : float;
  done_ : float;
  status : int;
  body : string;
}

let post d (k : kind) ~top =
  http ~port:d.port ~body:(k.body ~top) ("/" ^ k.endpoint ^ "?spans=none")

(* the seeded schedule: a fixed rate, each arrival jittered by up to a
   quarter of its slot, and the request kinds of [cycle] in a seeded order per cycle;
   a [Hit] slot repeats the warm-up request of a seeded kind among
   [hit_kinds].  The run is a whole number of cycles, so every run
   offers the same mix. *)
type slot = Miss of int | Hit

let schedule ~seed ~cycle ~nkinds ~hit_kinds ~gap ~seconds =
  let rng = Rng.create seed in
  let cycle = Array.of_list cycle in
  let slots = Array.length cycle in
  let n = max 2 (int_of_float (seconds /. gap) / slots) * slots in
  let tops = Array.make nkinds first_top in
  let order = ref [||] in
  List.init n (fun i ->
      if i mod slots = 0 then order := shuffled rng slots;
      let due = (float_of_int i +. Rng.float rng 0.25) *. gap in
      match cycle.(!order.(i mod slots)) with
      | Miss k ->
        let top = tops.(k) in
        tops.(k) <- top + 1;
        { due; kind = k; top }
      | Hit ->
        { due; kind = hit_kinds.(Rng.int rng (Array.length hit_kinds)); top = warm_top })

(* the outcomes, and the number of request spans recorded when [traced] *)
let open_loop ~traced d kinds reqs ~t0 =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let out = Array.make n None in
  let next = ref 0 and m = Mutex.create () in
  let rec client recorder () =
    let picked = now () in
    let i = Mutex.protect m (fun () -> let i = !next in incr next; i) in
    if i < n then begin
      let r = reqs.(i) in
      let due = t0 +. r.due in
      let wait = due -. now () in
      if wait > 0. then Thread.delay wait;
      let sent = now () in
      let request () = post d kinds.(r.kind) ~top:r.top in
      let status, body =
        try
          match recorder with
          | Some t -> Span.with_ t "serve.request" request
          | None -> request ()
        with e -> (0, Printexc.to_string e)
      in
      out.(i) <- Some { req = r; picked; sent; done_ = now (); status; body };
      client recorder ()
    end
  in
  (* at most two requests in flight: one per core.  A recorder keeps one
     stack of open spans, so each client thread has its own. *)
  let recorders = List.init 2 (fun _ -> if traced then Some (Span.create ()) else None) in
  let threads = List.map (fun r -> Thread.create (client r) ()) recorders in
  List.iter Thread.join threads;
  ( Array.to_list (Array.map Option.get out),
    List.fold_left
      (fun acc r -> acc + match r with Some t -> List.length (Span.spans t) | None -> 0)
      0 recorders )

(* one cycle of the offered mix, 21 requests: every kind once, the
   registered analyze requests twice and stripes.parc, the slowest kind,
   three times, plus 9 repeated requests that hit the store.  Each
   kind's latency is bimodal on a shared host (see NOTES.md), so p50
   falls on the fastest analyze misses, just above the hits, and p90 on
   the lowest third of the stripes.parc group: a run's share of slowed
   requests moves neither unless most of a group is slowed. *)
let serve_cycle kinds =
  let misses =
    List.concat
      (List.mapi
         (fun k kind ->
           let weight =
             if kind.endpoint = "analyze" && not (is_source kind) then 2
             else if kind.kkey = Spec.source_key "stripes.parc" then 3
             else 1
           in
           List.init weight (fun _ -> Miss k))
         (Array.to_list kinds))
  in
  misses @ List.init 9 (fun _ -> Hit)

let latency_limit = 1.0  (* seconds; a slower answer is not goodput *)

(* the request rate: one arrival per [gap] seconds.  The daemon's worker
   threads share one OCaml domain, so two requests that overlap take
   turns on it.  With the jitter, arrivals are at least 75 ms apart,
   above the slowest request (stripes.parc, ~56 ms on the two-core box
   the figures in NOTES.md come from), so they rarely overlap. *)
let gap = 0.1

let serve_setup ~cli ~work kinds () =
  let d = start_daemon ~cli ~work in
  let expect_ok (status, body) =
    if status <> 200 then
      failwith (Printf.sprintf "set-up request failed: %d %s" status body)
  in
  (* prime the daemon's trace memo: one request per registered program *)
  List.iter
    (fun p ->
      expect_ok
        (http ~port:d.port ~body:(registered_body p ~top:prime_top) "/analyze?spans=none"))
    Spec.serve_progs;
  (* warm-up: every request kind once; the repeated requests of the
     measured run hit these store entries *)
  Array.iter (fun k -> expect_ok (post d k ~top:warm_top)) kinds;
  d

type judged = {
  o : outcome;
  due : float;  (* absolute due time *)
  jlat : float;  (* from the due time to the answer *)
  jok : bool;
  cached : bool;
  jgot : X.checks;
}

let judge kinds ~t0 (o : outcome) =
  let k = kinds.(o.req.kind) in
  let due = t0 +. o.req.due in
  let lat = o.done_ -. due in
  let fail = { o; due; jlat = lat; jok = false; cached = false; jgot = [] } in
  if o.status <> 200 then fail
  else
    match Json.of_string o.body with
    | Error _ -> fail
    | Ok j -> (
      let cached =
        Option.value ~default:false (Option.bind (Json.member "cached" j) Json.get_bool)
      in
      match checks_of_payload k.endpoint (Option.get (Json.member "result" j)) with
      | got -> { o; due; jlat = lat; jok = got = k.kexpect; cached; jgot = got }
      | exception _ -> fail)

(* run [reqs] open-loop, starting now *)
let drive ?(traced = false) d kinds (reqs : request list) =
  match reqs with
  | [] -> ([], 0., 0)
  | first :: _ ->
    let t0 = now () +. 0.02 -. first.due in
    let outs, spans = open_loop ~traced d kinds reqs ~t0 in
    let judged = List.map (judge kinds ~t0) outs in
    let last = List.fold_left (fun m (j : judged) -> Float.max m j.o.done_) 0. judged in
    (judged, last -. (t0 +. first.due), spans)

(* generator lateness: how long after its due time each request went
   out, and the part of that no busy connection explains — the client
   itself stalling *)
let lateness judged =
  ( List.map (fun (j : judged) -> j.o.sent -. j.due) judged,
    List.map (fun (j : judged) -> j.o.sent -. Float.max j.due j.o.picked) judged )

let stall_limit = 0.05

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let ms s = s *. 1e3

let counts_metrics (distinct : (string, X.checks) Hashtbl.t) =
  let acc = ref 0 and miss = ref 0 and fs = ref 0 in
  Hashtbl.iter
    (fun _ checks ->
      List.iter
        (fun (label, v) ->
          match v with
          | [ r; w; cold; repl; ts; f; _; _ ] when label <> "cycles" ->
            acc := !acc + r + w;
            miss := !miss + cold + repl + ts + f;
            fs := !fs + f
          | _ -> ())
        checks)
    distinct;
  [ ("cache.accesses", float !acc, "count");
    ("cache.misses", float !miss, "count");
    ("cache.false_sharing", float !fs, "count") ]

(* what the spans of one name add up to *)
type layer = {
  calls : int;
  walls : float list;  (* per-call durations, seconds, in start order *)
  self : float;        (* total duration minus what child spans cover *)
  events : float;      (* trace events the calls handled *)
  bytes : float;       (* file bytes the calls wrote *)
}

let summarize recorder =
  let spans = Array.of_list (Span.spans recorder) in
  let dur = Array.map (Span.duration recorder) spans in
  let self = Array.copy dur in
  (* span ids are dense, in start order *)
  Array.iter
    (fun (sp : Span.span) ->
      if sp.parent >= 0 then self.(sp.parent) <- self.(sp.parent) -. dur.(sp.id))
    spans;
  let count (sp : Span.span) key =
    match List.assoc_opt key sp.attrs with Some v -> float_of_string v | None -> 0.
  in
  (* a pipeline's "interp" span carries no count: it recorded the trace
     its sibling "replay+cache" span replays *)
  let replayed = Hashtbl.create 16 in
  Array.iter
    (fun (sp : Span.span) ->
      if sp.name = "replay+cache" then Hashtbl.replace replayed sp.parent (count sp "events"))
    spans;
  let events (sp : Span.span) =
    if sp.name = "interp" && not (List.mem_assoc "events" sp.attrs) then
      Option.value ~default:0. (Hashtbl.find_opt replayed sp.parent)
    else count sp "events"
  in
  let tbl = Hashtbl.create 16 in
  for i = Array.length spans - 1 downto 0 do
    let sp = spans.(i) in
    let prev =
      Option.value (Hashtbl.find_opt tbl sp.name)
        ~default:{ calls = 0; walls = []; self = 0.; events = 0.; bytes = 0. }
    in
    Hashtbl.replace tbl sp.name
      { calls = prev.calls + 1; walls = dur.(i) :: prev.walls;
        self = prev.self +. self.(i); events = prev.events +. events sp;
        bytes = prev.bytes +. count sp "bytes" }
  done;
  tbl

(* the summed self time of [layers] over [wall] *)
let coverage summary layers wall =
  sum
    (List.map
       (fun n -> match Hashtbl.find_opt summary n with Some l -> l.self | None -> 0.)
       layers)
  /. wall

(* every per-layer metric, from the spans; a layer this workload does
   not call reads 0 *)
let layer_metrics ~summary ~coverage ~overhead ~distinct ~serve =
  let find name = Hashtbl.find_opt summary name in
  let med name = match find name with Some l -> ms (median l.walls) | None -> 0. in
  let rate work name =
    match find name with
    | Some l when sum l.walls > 0. -> work l /. sum l.walls /. 1e6
    | _ -> 0.
  in
  let events = rate (fun l -> l.events) and mb = rate (fun l -> l.bytes) in
  (* the three analyses, summed per pipeline run *)
  let analysis =
    match List.map find [ "pdv"; "non-concurrency"; "summary" ] with
    | [ Some a; Some b; Some c ] ->
      ms (median (List.map2 ( +. ) a.walls (List.map2 ( +. ) b.walls c.walls)))
    | _ -> 0.
  in
  (* the pipeline's own time, beyond the layer spans it opens *)
  let unaccounted =
    match find "pipeline" with Some p -> ms (p.self /. float p.calls) | None -> 0.
  in
  let bytes_per_event =
    match find "trace.encode" with
    | Some l when l.events > 0. -> l.bytes /. l.events
    | _ -> 0.
  in
  let fused = events "replay.fused" and streamed = events "replay.stream" in
  [ ("parc.parse_ms", med "parse", "ms");
    ("analysis.ms", analysis, "ms");
    ("transform.plan_ms", med "transform", "ms");
    ("layout.realize_ms", med "layout", "ms");
    ("interp.record_ms", med "interp", "ms");
    ("interp.events_per_s", events "interp", "Mevents/s");
    ("pipeline.replay_events_per_s", events "replay+cache", "Mevents/s");
    ("replay.tracked_events_per_s", events "replay.tracked", "Mevents/s");
    ("obs.metrics_replay_ms", med "obs.metrics_replay", "ms");
    ("pipeline.unaccounted_ms", unaccounted, "ms");
    ("replay.fused_events_per_s", fused, "Mevents/s");
    ("machine.events_per_s", events "machine", "Mevents/s");
    ("trace.encode_mb_per_s", mb "trace.encode", "MB/s");
    ("trace.decode_events_per_s", events "trace.decode", "Mevents/s");
    ("replay.stream_events_per_s", streamed, "Mevents/s");
    ( "replay.stream_vs_memory",
      (if fused > 0. then streamed /. fused else 0.),
      "ratio" );
    ("trace.bytes_per_event", bytes_per_event, "B/event") ]
  @ counts_metrics distinct
  @ serve
  @ [ ("feedback.repair_ms", med "refine", "ms");
      ("ledger.coverage", coverage, "ratio");
      ("ledger.trace_overhead", overhead, "ratio") ]

let serve_metrics =
  [ ("serve.hit_ms", "ms"); ("serve.miss_ms", "ms");
    ("serve.store_hit_ratio", "ratio"); ("serve.memo_hit_ratio", "ratio");
    ("serve.rejected", "count"); ("serve.coalesced", "count");
    ("serve.gen_late_p90_ms", "ms"); ("serve.gen_late_max_ms", "ms") ]

let with_values names values = List.map2 (fun (n, u) v -> (n, v, u)) names values

let no_serve = with_values serve_metrics (List.map (fun _ -> 0.) serve_metrics)

let print_ledger summary =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) summary [] |> List.sort compare in
  Printf.printf "%-22s %7s %12s %12s %14s\n" "span" "calls" "self ms" "median ms" "events";
  List.iter
    (fun name ->
      let l = Hashtbl.find summary name in
      Printf.printf "%-22s %7d %12.1f %12.3f %14.0f\n" name l.calls (ms l.self)
        (ms (median l.walls)) l.events)
    names

let e2e ~setup_s ~ops_per_s ~events_per_s ~lats ~rss =
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", ops_per_s, "1/s");
    ("events_per_s", events_per_s, "Mevents/s");
    ("latency_p50_ms", ms (percentile lats 0.5), "ms");
    ("latency_p90_ms", ms (percentile lats 0.9), "ms");
    ("peak_rss_mb", rss, "MB") ]

let enough_tail lats =
  let n = above lats (percentile lats 0.9) in
  if n < 10 then
    Printf.printf "only %d samples above p90 (need 10)\n" n;
  n >= 10

(* set-ups per run: one daemon start or heap growth that runs slow moves
   one of them, not their median *)
let setups = 5

(* set up [setups] times and report the median time, with the result of
   the last set-up; [teardown] ends each earlier one before the next
   starts *)
let timed_setups ?(teardown = ignore) setup =
  let times = ref [] and last = ref None in
  for _ = 1 to setups do
    Option.iter teardown !last;
    (* drop the previous result first, so its memory can be reused *)
    last := None;
    let t = now () in
    let v = setup () in
    times := (now () -. t) :: !times;
    last := Some v
  done;
  Printf.printf "set-up: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times));
  (median !times, Option.get !last)

(* ------------------------------------------------------------------ *)
(* Running a workload                                                   *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  expected : string;
  work : string;
  sources : string;
}

let distinct_outputs (samples : sample list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : sample) -> if s.ok && not (Hashtbl.mem tbl s.key) then Hashtbl.replace tbl s.key s.got)
    samples;
  tbl

let run_closed (a : args) setup =
  if not a.trace then begin
    let setup_s, w = timed_setups setup in
    Printf.printf "sequence: %s\n" (sequence_digest w ~seed:a.seed);
    List.iter print_endline w.notes;
    let samples, wall, cycles = closed_loop w ~seed:a.seed ~seconds:a.seconds in
    let lats = List.map (fun s -> s.lat) samples in
    let n = List.length samples in
    let failed = List.length (List.filter (fun s -> not s.ok) samples) in
    (* throughput over the median cycle: every cycle runs the same ops,
       so a burst of interference moves a few cycles, not the median *)
    let per_cycle = Array.length w.ops in
    let cycle_events =
      Array.fold_left (fun acc (o : op) -> acc + o.events) 0 w.ops
    in
    let cycle_s = median cycles in
    Printf.printf "ops: %d in %.2f s, %d cycles of %d, median cycle %.1f ms\n" n
      wall (List.length cycles) per_cycle (ms cycle_s);
    Array.iter
      (fun (o : op) ->
        let lats = List.filter_map (fun s -> if s.key = o.key then Some s.lat else None) samples in
        Printf.printf "  %-36s %4d ops  p50 %8.2f ms  p90 %8.2f ms\n" o.key
          (List.length lats) (ms (percentile lats 0.5)) (ms (percentile lats 0.9)))
      w.ops;
    let tail = enough_tail lats in
    print_result ~correct:(failed = 0 && tail) ~attempted:n ~failed
      (e2e ~setup_s
         ~ops_per_s:(float per_cycle /. cycle_s)
         ~events_per_s:(float cycle_events /. cycle_s /. 1e6)
         ~lats ~rss:(peak_rss_mb "self"))
  end
  else begin
    let recorder = Span.create () in
    (* set-up is traced too: sweep and stream record their traces there *)
    Span.set_current (Some recorder);
    let w = setup () in
    Printf.printf "sequence: %s\n" (sequence_digest w ~seed:a.seed);
    List.iter print_endline w.notes;
    (* the same op sequence twice: untraced, then traced *)
    let plain, _, _ =
      untraced (fun () -> closed_loop w ~seed:a.seed ~min:0 ~seconds:(a.seconds *. 0.4))
    in
    let k = List.length plain in
    let traced, _, _ = closed_loop w ~seed:a.seed ~seconds:0. ~count:k in
    let probes = w.probes () in
    Span.set_current None;
    let summary = summarize recorder in
    print_ledger summary;
    (* no probe opens a span named like one of the op's layers *)
    let traced_wall = sum (List.map (fun s -> s.lat) traced) in
    let coverage = coverage summary w.layers traced_wall in
    let untraced_wall = sum (List.map (fun s -> s.lat) plain) in
    let overhead = (traced_wall -. untraced_wall) /. untraced_wall in
    Printf.printf "coverage: %s %.3f (layer self time / op wall, %s)\n" a.workload
      coverage (String.concat " + " w.layers);
    Printf.printf
      "tracing overhead: %+.1f%% (%d ops: traced %.1f ms, untraced %.1f ms)\n"
      (100. *. overhead) k (ms traced_wall) (ms untraced_wall);
    let all = plain @ traced in
    let failed =
      List.length (List.filter (fun s -> not s.ok) all)
      + List.length (List.filter not probes)
    in
    print_result ~correct:(failed = 0) ~attempted:(List.length all + List.length probes)
      ~failed
      (layer_metrics ~summary ~coverage ~overhead ~distinct:(distinct_outputs all)
         ~serve:no_serve)
  end

let serve_digest kinds reqs =
  digest
    (List.map
       (fun (r : request) -> Printf.sprintf "%.6f:%s:%d" r.due kinds.(r.kind).kkey r.top)
       reqs)

let run_serve (a : args) =
  let kinds = serve_kinds ~expected:(X.load a.expected) ~sources_dir:a.sources in
  let cycle = serve_cycle kinds in
  (* a hotlines answer lists the hot lines up to [top], and the warm-up's
     [top] is large: repeating it is not a cheap hit *)
  let hit_kinds =
    Array.of_list
      (List.filter (fun k -> kinds.(k).endpoint <> "hotlines")
         (List.init (Array.length kinds) Fun.id))
  in
  let reqs =
    schedule ~seed:a.seed ~cycle ~nkinds:(Array.length kinds) ~hit_kinds ~gap
      ~seconds:a.seconds
  in
  Printf.printf "sequence: %s (%d requests, one per %.0f ms)\n"
    (serve_digest kinds reqs) (List.length reqs) (ms gap);
  let setup_s, d =
    if a.trace then (0., serve_setup ~cli:a.cli ~work:a.work kinds ())
    else timed_setups ~teardown:stop_daemon (serve_setup ~cli:a.cli ~work:a.work kinds)
  in
  let status0 = statusz d in
  let rejected0 = metric_value d "serve_rejected_total"
  and coalesced0 = metric_value d "serve_coalesced_total" in
  let judged, wall, plain, request_spans =
    if not a.trace then
      let j, wall, _ = drive d kinds reqs in
      (j, wall, [], 0)
    else begin
      (* the first half of the cycles untraced, the rest with a span per
         request; the schedule has at least two cycles *)
      let slots = List.length cycle in
      let half = List.length reqs / slots / 2 * slots in
      let first = List.filteri (fun i _ -> i < half) reqs
      and second = List.filteri (fun i _ -> i >= half) reqs in
      let plain, _, _ = drive d kinds first in
      let traced, wall, spans = drive ~traced:true d kinds second in
      (traced, wall, plain, spans)
    end
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let status1 = statusz d in
  let rejected = metric_value d "serve_rejected_total" -. rejected0
  and coalesced = metric_value d "serve_coalesced_total" -. coalesced0 in
  stop_daemon d;
  let all = plain @ judged in
  let late, stall = lateness all in
  let valid = maximum stall <= stall_limit in
  Printf.printf
    "generator lateness: p90 %.2f ms, max %.2f ms; own stall max %.2f ms%s\n"
    (ms (percentile late 0.9)) (ms (maximum late))
    (ms (maximum stall))
    (if valid then "" else " -> run INVALID: the client fell behind its schedule");
  let failed = List.length (List.filter (fun (j : judged) -> not j.jok) all) in
  let attempted = List.length all in
  Printf.printf "requests: %d, failed %d, cached %d\n" attempted failed
    (List.length (List.filter (fun (j : judged) -> j.cached) all));
  Array.iteri
    (fun k kind ->
      let mine = List.filter (fun (j : judged) -> j.o.req.kind = k) all in
      let miss = List.filter (fun (j : judged) -> not j.cached) mine in
      let hit = List.filter (fun (j : judged) -> j.cached) mine in
      let med l = ms (median (List.map (fun (j : judged) -> j.jlat) l)) in
      Printf.printf "  %-38s miss %3d p50 %7.2f ms   hit %3d p50 %6.2f ms\n"
        kind.kkey (List.length miss) (med miss) (List.length hit) (med hit))
    kinds;
  if not a.trace then begin
    let lats =
      List.map (fun (j : judged) -> if j.jok then j.jlat else Float.infinity) judged
    in
    let good = List.filter (fun (j : judged) -> j.jok && j.jlat <= latency_limit) judged in
    let events =
      List.fold_left
        (fun acc (j : judged) -> if j.cached then acc else acc + kinds.(j.o.req.kind).kevents)
        0 good
    in
    let tail = enough_tail lats in
    print_result ~correct:(failed = 0 && valid && tail) ~attempted ~failed
      (e2e ~setup_s
         ~ops_per_s:(float (List.length good) /. wall)
         ~events_per_s:(float events /. wall /. 1e6)
         ~lats ~rss)
  end
  else begin
    (* the layers the daemon runs, called here once per request kind *)
    let recorder = Span.create () in
    Span.set_current (Some recorder);
    List.iter
      (fun file ->
        let src = In_channel.with_open_bin (Filename.concat a.sources file) In_channel.input_all in
        for _ = 1 to 20 do
          ignore (span "parse" (fun () -> Fs_parc.Parser.parse_and_validate src))
        done;
        (* a source request records its program afresh: no memo *)
        match Fs_parc.Parser.parse_and_validate src with
        | Error _ -> ()
        | Ok prog ->
          let nprocs = Spec.source_nprocs in
          let prog = Fs_sched.Sched.instrument ~nprocs prog in
          Span.timed "interp" (fun () ->
              let r = Sim.record prog ~nprocs in
              Span.note "events" (string_of_int (Ct.length r.Sim.trace))))
      Spec.serve_sources;
    (* [Repair.refine] opens its own "refine" span *)
    List.iter
      (fun (endpoint, (p : Spec.prog)) ->
        if endpoint = "repair" then begin
          let prog = Spec.build p in
          let recorded = Sim.record prog ~nprocs:p.nprocs in
          let plan = Sim.compiler_plan prog ~nprocs:p.nprocs in
          ignore
            (Fs_feedback.Repair.refine ~recorded prog plan ~nprocs:p.nprocs
               ~block:Spec.analyze_block)
        end)
      Spec.serve_registered;
    Span.set_current None;
    let summary = summarize recorder in
    print_ledger summary;
    Printf.printf "serve.request spans: %d\n" request_spans;
    let rt (j : judged) = j.o.done_ -. j.o.sent in
    let ok = List.filter (fun (j : judged) -> j.jok) judged in
    let hit = List.filter (fun (j : judged) -> j.cached) ok
    and miss = List.filter (fun (j : judged) -> not j.cached) ok in
    let coverage = sum (List.map rt judged) /. sum (List.map (fun (j : judged) -> j.jlat) judged) in
    let mean l = sum l /. float (List.length l) in
    let overhead =
      mean (List.map (fun (j : judged) -> j.jlat) judged)
      /. mean (List.map (fun (j : judged) -> j.jlat) plain)
      -. 1.
    in
    Printf.printf "coverage: serve %.3f (round trip / latency from due time)\n" coverage;
    Printf.printf "tracing overhead: %+.1f%% (mean latency, traced vs untraced half)\n"
      (100. *. overhead);
    let ratio section =
      let h = status_int status1 [ section; "hits" ] - status_int status0 [ section; "hits" ]
      and m = status_int status1 [ section; "misses" ] - status_int status0 [ section; "misses" ] in
      if h + m = 0 then 0. else float h /. float (h + m)
    in
    let distinct = Hashtbl.create 16 in
    List.iter
      (fun (j : judged) ->
        let key = kinds.(j.o.req.kind).kkey in
        if j.jok && not (Hashtbl.mem distinct key) then Hashtbl.replace distinct key j.jgot)
      all;
    let serve =
      with_values serve_metrics
        [ ms (median (List.map rt hit)); ms (median (List.map rt miss));
          ratio "store"; ratio "memo"; rejected; coalesced;
          ms (percentile late 0.9); ms (maximum late) ]
    in
    print_result ~correct:(failed = 0 && valid) ~attempted ~failed
      (layer_metrics ~summary ~coverage ~overhead ~distinct ~serve)
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload analyze|sweep|stream|serve --seed N \
     --seconds S --trace 0|1 --cli EXE --expected FILE --work DIR --sources DIR\n\
    \       bench.exe expected --sources DIR";
  exit 2

let parse_flags argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  fun name -> match Hashtbl.find_opt tbl name with Some v -> v | None -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "expected" :: rest ->
    let flag = parse_flags rest in
    print_endline
      (Json.to_string ~compact:false (X.generate ~sources_dir:(flag "sources")))
  | _ :: "run" :: rest ->
    let flag = parse_flags rest in
    let int name = match int_of_string_opt (flag name) with Some n -> n | None -> usage () in
    let a =
      { workload = flag "workload"; seed = int "seed";
        seconds = float_of_int (int "seconds"); trace = int "trace" = 1;
        cli = flag "cli"; expected = flag "expected"; work = flag "work";
        sources = flag "sources" }
    in
    mkdir_p a.work;
    Printf.printf "workload %s, seed %d, %.0f s, trace %b\n%!" a.workload a.seed
      a.seconds a.trace;
    let expected () = X.load a.expected in
    (match a.workload with
     | "analyze" -> run_closed a (analyze_setup ~expected:(expected ()) ~seed:a.seed)
     | "sweep" -> run_closed a (sweep_setup ~expected:(expected ()))
     | "stream" -> run_closed a (stream_setup ~expected:(expected ()) ~work:a.work)
     | "serve" -> run_serve a
     | w ->
       Printf.eprintf "unknown workload %S\n" w;
       exit 2)
  | _ -> usage ()
