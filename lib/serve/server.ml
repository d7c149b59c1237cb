module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module Emit = Falseshare.Emit
module Trace_memo = Falseshare.Trace_memo
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Json = Fs_obs.Json
module Span = Fs_obs.Span
module Metrics = Fs_obs.Metrics
module Par = Fs_util.Par
module Singleflight = Fs_util.Singleflight

(* a client's fault: becomes a 400 with this message *)
exception Client_error of string

let client_err fmt = Printf.ksprintf (fun m -> raise (Client_error m)) fmt

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  jobs : int;
  cache_dir : string;
  cache_budget_bytes : int;
  recent : int;
  debug_endpoints : bool;
  socket_timeout_s : float;
}

let default_config =
  {
    port = 0;
    workers = 4;
    queue_capacity = 64;
    jobs = Par.default_jobs ();
    cache_dir = "_falseshare_cache";
    cache_budget_bytes = Store.default_budget_bytes;
    recent = 32;
    debug_endpoints = false;
    socket_timeout_s = 30.0;
  }

type job = {
  jid : int;
  jfd : Unix.file_descr;
  jreq : Http.request;
  jendpoint : string;
  jenq : float;  (** [gettimeofday] at admission; latency includes queueing *)
}

type ring_entry = {
  rid : int;
  rendpoint : string;
  rstatus : int;
  rcached : bool;
  rcoalesced : bool;
  relapsed_s : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  store : Store.t;
  sf : (string, string * bool) Singleflight.t;  (* key -> (payload, served-from-store) *)
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable next_id : int;
  reg : Metrics.t;
  reg_lock : Mutex.t;
  (* worker threads share domain 0, whose ambient span recorder is
     domain-local: only one heavy computation may own it (and the
     machine's domains) at a time *)
  compute_lock : Mutex.t;
  mutable last_store : Store.stats;
  ring : ring_entry option array;
  mutable ring_next : int;
  started_at : float;
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  join_lock : Mutex.t;
  join_cond : Condition.t;
  mutable join_state : [ `Idle | `Joining | `Done ];
}

let port t = t.bound_port

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let with_reg t f = Mutex.protect t.reg_lock (fun () -> f t.reg)

let latency_buckets = [ 0.001; 0.005; 0.02; 0.1; 0.5; 2.0; 10.0 ]

let count_request t ~endpoint ~status =
  with_reg t (fun reg ->
      Metrics.Counter.incr
        (Metrics.counter reg "serve_requests_total"
           ~labels:[ ("endpoint", endpoint); ("status", string_of_int status) ]
           ~help:"Requests answered, by endpoint and HTTP status"))

let observe_latency t ~endpoint seconds =
  with_reg t (fun reg ->
      Metrics.Histogram.observe
        (Metrics.histogram reg "serve_request_seconds"
           ~labels:[ ("endpoint", endpoint) ]
           ~buckets:latency_buckets
           ~help:"Request latency in seconds, admission to response")
        seconds)

let set_gauge t name help v =
  with_reg t (fun reg ->
      Metrics.Gauge.set (Metrics.gauge reg name ~help) v)

let add_gauge t name help d =
  with_reg t (fun reg ->
      Metrics.Gauge.add (Metrics.gauge reg name ~help) d)

let incr_counter t name help =
  with_reg t (fun reg ->
      Metrics.Counter.incr (Metrics.counter reg name ~help))

let queue_depth t = Mutex.protect t.qlock (fun () -> Queue.length t.queue)

let publish_queue_depth t =
  let d = queue_depth t in
  set_gauge t "serve_queue_depth" "Admitted requests not yet being served"
    (float_of_int d)

(* fold the store's own counters into the registry as monotone deltas,
   so Prometheus counters stay counters across scrapes *)
let sync_store_counters t =
  let cur = Store.stats t.store in
  with_reg t (fun reg ->
      let c name help = Metrics.counter reg name ~help in
      let add ctr d = if d > 0 then Metrics.Counter.add ctr d in
      let last = t.last_store in
      add (c "serve_cache_hits_total" "Result-store hits") (cur.Store.hits - last.Store.hits);
      add (c "serve_cache_misses_total" "Result-store misses") (cur.misses - last.misses);
      add (c "serve_cache_evictions_total" "Result-store evictions") (cur.evictions - last.evictions);
      add
        (c "serve_cache_quarantined_total"
           "Result-store entries quarantined after failed verification")
        (cur.quarantined - last.quarantined);
      add (c "serve_cache_puts_total" "Result-store writes") (cur.puts - last.puts);
      Metrics.Gauge.set
        (Metrics.gauge reg "serve_cache_bytes" ~help:"Result-store bytes on disk")
        (float_of_int cur.bytes);
      Metrics.Gauge.set
        (Metrics.gauge reg "serve_cache_entries" ~help:"Result-store entries")
        (float_of_int cur.entries);
      t.last_store <- cur)

(* ------------------------------------------------------------------ *)
(* Request parameters                                                  *)

type params = {
  pendpoint : string;
  pprog : Fs_ir.Ast.program;
  psource : string;  (** printed program text — the content that is addressed *)
  pwname : string;
  pworkload : W.t option;
  pnprocs : int;
  pscale : int;
  pblock : int;
  pversion : W.version;  (** the layout, by {!E.layout_name} *)
  ptop : int;
  pmax_iters : int;
  psched_seed : int option;
      (** required when the program spawns tasks; [None] otherwise *)
}

let parse_params endpoint (req : Http.request) =
  let j =
    match Json.of_string (if req.Http.body = "" then "{}" else req.Http.body) with
    | Ok j -> j
    | Error m -> client_err "request body is not JSON: %s" m
  in
  let int_field name default =
    match Json.member name j with
    | None -> default
    | Some v -> (
      match Json.get_int v with
      | Some n -> n
      | None -> client_err "field %S must be an integer" name)
  in
  let str_field name =
    match Json.member name j with
    | None -> None
    | Some v -> (
      match Json.get_string v with
      | Some s -> Some s
      | None -> client_err "field %S must be a string" name)
  in
  let nprocs = int_field "nprocs" 12 in
  if nprocs < 1 || nprocs > 64 then client_err "nprocs must be in 1..64";
  let block = int_field "block" 128 in
  if block < 4 || block > 4096 then client_err "block must be in 4..4096";
  let version =
    match str_field "layout" with
    | None -> (
      (* the feedback-flavored endpoints default to the compiler's layout,
         like their CLI counterparts *)
      match endpoint with
      | "hotlines" | "repair" | "profile" -> W.C
      | _ -> W.N)
    | Some l -> (
      match List.assoc_opt l E.layouts with
      | Some v -> v
      | None ->
        client_err
          "unknown layout %S (expected unoptimized, compiler, or programmer)"
          l)
  in
  let top = int_field "top" 10 in
  if top < 1 || top > 10_000 then client_err "top must be in 1..10000";
  let max_iters =
    int_field "max_iters" Fs_feedback.Repair.default_options.max_iters
  in
  if max_iters < 0 || max_iters > 100 then
    client_err "max_iters must be in 0..100";
  let sched_seed =
    match Json.member "sched_seed" j with
    | None -> None
    | Some v -> (
      match Json.get_int v with
      | Some n -> Some n
      | None -> client_err "field \"sched_seed\" must be an integer")
  in
  (* the layout, the cache's arrays and the interpreter's store all
     grow linearly with scale, and the program is built inside the
     request *)
  let scale_field default =
    let scale = int_field "scale" default in
    if scale < 1 || scale > 64 then client_err "scale must be in 1..64";
    scale
  in
  let workload, prog, scale, wname =
    match (str_field "workload", str_field "source") with
    | Some _, Some _ -> client_err "give either \"workload\" or \"source\", not both"
    | Some name, None -> (
      match Ws.find name with
      | w ->
        let scale = scale_field w.W.default_scale in
        (Some w, w.W.build ~nprocs ~scale, scale, w.W.name)
      | exception Not_found ->
        let names = List.map (fun w -> w.W.name) Ws.every in
        let hint =
          match Fs_util.Strdist.suggest name names with
          | [] -> "GET /statusz lists the suite"
          | near ->
            Printf.sprintf "did you mean %s?"
              (String.concat " or " (List.map (Printf.sprintf "%S") near))
        in
        client_err "unknown workload %S (%s)" name hint)
    | None, Some src -> (
      match Fs_parc.Parser.parse_and_validate src with
      | Ok prog ->
        (* a submitted source that spawns tasks gets the scheduler globals
           grafted on here, like the registered dynamic workloads do in
           their builders (instrument is the identity otherwise) *)
        let prog = Fs_sched.Sched.instrument ~nprocs prog in
        let scale = scale_field 1 in
        (* the source is built as sent: a scale would only split one
           program's results across several store entries *)
        if Json.member "scale" j <> None then
          client_err "scale applies only to a registered workload";
        (None, prog, scale, "<source>")
      | Error errs -> client_err "source does not validate: %s" (String.concat "; " errs))
    | None, None ->
      client_err "body must name a \"workload\" or carry ParC \"source\""
  in
  (* dynamic executions refuse to run without an explicit seed — a silent
     default would let two tenants' "same" request alias different steal
     schedules the day the default changes *)
  (match sched_seed with
   | None when Fs_sched.Sched.uses_tasks prog ->
     client_err
       "program %S spawns tasks: the work-stealing schedule needs an \
        explicit \"sched_seed\" (an integer; same seed, same execution)"
       wname
   | _ -> ());
  {
    pendpoint = endpoint;
    pprog = prog;
    psource = Fs_ir.Pp.program_to_string prog;
    pwname = wname;
    pworkload = workload;
    pnprocs = nprocs;
    pscale = scale;
    pblock = block;
    pversion = version;
    ptop = top;
    pmax_iters = max_iters;
    psched_seed = sched_seed;
  }

(* every resolved parameter is part of the address: two requests whose
   defaults resolve differently must never alias *)
let cache_version = "falseshare-serve/2"

let cache_key p =
  Store.key
    [
      cache_version;
      p.pendpoint;
      p.pwname;
      p.psource;
      string_of_int p.pnprocs;
      string_of_int p.pscale;
      string_of_int p.pblock;
      E.layout_name p.pversion;
      string_of_int p.ptop;
      string_of_int p.pmax_iters;
      (match p.psched_seed with
       | None -> "seed=-"
       | Some s -> Printf.sprintf "seed=%d" s);
    ]

(* ------------------------------------------------------------------ *)
(* Handlers: each returns the result payload as a JSON string           *)

let plan_of p =
  match (p.pworkload, p.pversion) with
  | Some w, W.P when not (List.mem W.P w.W.versions) ->
    client_err "workload %S has no programmer layout" w.W.name
  | Some w, v -> E.plan_for w v p.pprog ~nprocs:p.pnprocs ~scale:p.pscale
  | None, W.N -> []
  | None, W.C -> Sim.compiler_plan p.pprog ~nprocs:p.pnprocs
  | None, W.P -> client_err "a ParC source has no programmer layout"

let recorded_for p =
  match p.pworkload with
  | Some w ->
    Span.timed "memo"
      ~attrs:[ ("workload", w.W.name) ]
      (fun () ->
        (Trace_memo.get ?seed:p.psched_seed w ~nprocs:p.pnprocs
           ~scale:p.pscale)
          .Trace_memo.recorded)
  | None ->
    let sched = Option.map Fs_sched.Sched.seeded p.psched_seed in
    Span.timed "record" (fun () ->
        Sim.record ?sched p.pprog ~nprocs:p.pnprocs)

let versions_of p =
  match p.pworkload with
  | Some w -> E.versions w p.pprog ~nprocs:p.pnprocs ~scale:p.pscale
  | None ->
    [ ("unoptimized", []);
      ("compiler", Sim.compiler_plan p.pprog ~nprocs:p.pnprocs) ]

let handle_analyze ~jobs p =
  let versions = Span.timed "plan" (fun () -> versions_of p) in
  let recorded = recorded_for p in
  let runs =
    Span.timed "replay"
      ~attrs:[ ("versions", string_of_int (List.length versions)) ]
      (fun () ->
        Par.map ~jobs
          (fun (name, plan) ->
            ( name,
              Sim.cache_sim ~recorded p.pprog plan ~nprocs:p.pnprocs
                ~block:p.pblock ))
          versions)
  in
  Emit.sim ~workload:p.pwname ~nprocs:p.pnprocs ~block:p.pblock runs

let handle_blame p =
  let plan = Span.timed "plan" (fun () -> plan_of p) in
  let recorded = recorded_for p in
  Emit.blame
    (Span.timed "replay" (fun () ->
         Falseshare.Blame.analyze ~top:p.ptop ~recorded p.pprog plan
           ~nprocs:p.pnprocs ~block:p.pblock))

let handle_phases p =
  let plan = Span.timed "plan" (fun () -> plan_of p) in
  let recorded = recorded_for p in
  Emit.phases
    (Span.timed "replay" (fun () ->
         Falseshare.Phases.analyze ~recorded p.pprog plan ~nprocs:p.pnprocs
           ~block:p.pblock))

let handle_hotlines p =
  let plan = Span.timed "plan" (fun () -> plan_of p) in
  let recorded = recorded_for p in
  Emit.hotlines
    (Span.timed "replay" (fun () ->
         Falseshare.Hotlines.analyze ~top:p.ptop ~recorded p.pprog plan
           ~nprocs:p.pnprocs ~block:p.pblock))

let handle_repair p =
  let plan = Span.timed "plan" (fun () -> plan_of p) in
  let recorded = recorded_for p in
  let options =
    { Fs_feedback.Repair.max_iters = p.pmax_iters; top = p.ptop }
  in
  Fs_feedback.Repair.to_json
    (Span.timed "repair" (fun () ->
         Fs_feedback.Repair.refine ~options ~recorded p.pprog plan
           ~nprocs:p.pnprocs ~block:p.pblock))

let handle_profile ~jobs p =
  let plan = Span.timed "plan" (fun () -> plan_of p) in
  let recorded = recorded_for p in
  let sweep, pool =
    Span.timed "replay"
      ~attrs:[ ("jobs", string_of_int jobs) ]
      (fun () ->
        Par.map_with_stats ~jobs
          (fun block ->
            ( block,
              (Sim.cache_sim ~recorded p.pprog plan ~nprocs:p.pnprocs ~block)
                .Sim.counts ))
          E.profile_blocks)
  in
  let module C = Fs_cache.Mpcache in
  Json.Obj
    [ ("workload", Json.String p.pwname);
      ("nprocs", Json.Int p.pnprocs);
      ("scale", Json.Int p.pscale);
      ("layout", Json.String (E.layout_name p.pversion));
      ("pool", Fs_obs.Pool.to_json pool);
      ( "sweep",
        Json.List
          (List.map
             (fun (block, (c : C.counts)) ->
               Json.Obj
                 [ ("block", Json.Int block);
                   ("accesses", Json.Int (C.accesses c));
                   ("misses", Json.Int (C.misses c));
                   ("false_sharing", Json.Int c.C.false_sh) ])
             sweep)) ]

let compute ~jobs p =
  let payload =
    match p.pendpoint with
    | "analyze" -> handle_analyze ~jobs p
    | "blame" -> handle_blame p
    | "phases" -> handle_phases p
    | "hotlines" -> handle_hotlines p
    | "repair" -> handle_repair p
    | "profile" -> handle_profile ~jobs p
    | ep -> client_err "unknown endpoint %S" ep
  in
  Json.to_string payload

(* ------------------------------------------------------------------ *)
(* The work path: singleflight -> store -> compute                      *)

let store_find t recorder key =
  Span.with_ recorder "store.find" (fun () ->
      match Store.find t.store key with
      | Ok (Some payload) ->
        Span.attr recorder "outcome" "hit";
        Some payload
      | Ok None ->
        Span.attr recorder "outcome" "miss";
        None
      | Error (c : Store.corrupt) ->
        Span.attr recorder "outcome" "corrupt";
        Printf.eprintf
          "falseshare serve: quarantined corrupt cache entry %s (%s)%s\n%!"
          c.Store.ckey c.Store.reason
          (match c.Store.quarantined_to with
           | Some q -> " -> " ^ q
           | None -> "");
        None)

(* returns (payload, served_from_store, coalesced) *)
let run_query t recorder req endpoint =
  let p =
    Span.with_ recorder "parse"
      ~attrs:[ ("bytes", string_of_int (String.length req.Http.body)) ]
      (fun () -> parse_params endpoint req)
  in
  let key = cache_key p in
  Span.attr recorder "key" key;
  let (payload, from_store), role =
    Singleflight.run t.sf key (fun () ->
        match store_find t recorder key with
        | Some payload -> (payload, true)
        | None ->
          let payload =
            Span.with_ recorder "compute" (fun () ->
                Mutex.protect t.compute_lock (fun () ->
                    (* the ambient recorder is domain-local and worker
                       threads share domain 0: it may only be installed
                       while holding the compute lock *)
                    Span.set_current (Some recorder);
                    Fun.protect
                      ~finally:(fun () -> Span.set_current None)
                      (fun () -> compute ~jobs:t.cfg.jobs p)))
          in
          Span.with_ recorder "store.put" (fun () ->
              Store.put t.store key payload);
          (payload, false))
  in
  (payload, from_store, role = `Joined)

let json_error m = Json.to_string (Json.Obj [ ("error", Json.String m) ])

let spans_json recorder (req : Http.request) =
  match Http.query_param req "spans" with
  | Some "none" -> "null"
  | Some "chrome" ->
    Json.to_string (Fs_obs.Timeline.to_json (Span.to_timeline recorder))
  | _ -> Json.to_string (Span.to_json recorder)

let envelope ~id ~endpoint ~cached ~coalesced ~elapsed_s ~payload ~spans =
  Printf.sprintf
    "{\"request_id\":%d,\"endpoint\":%s,\"cached\":%b,\"coalesced\":%b,\"elapsed_s\":%s,\"result\":%s,\"spans\":%s}"
    id
    (Json.to_string (Json.String endpoint))
    cached coalesced
    (Json.to_string (Json.float elapsed_s))
    payload spans

let ring_push t e =
  Mutex.protect t.qlock (fun () ->
      if Array.length t.ring > 0 then begin
        t.ring.(t.ring_next mod Array.length t.ring) <- Some e;
        t.ring_next <- t.ring_next + 1
      end)

let inflight_help = "Requests being served right now"

let handle_job t job =
  add_gauge t "serve_inflight" inflight_help 1.0;
  let recorder = Span.create () in
  let finishing =
    match
      Span.with_ recorder job.jendpoint
        ~attrs:[ ("request_id", string_of_int job.jid) ]
        (fun () ->
          if job.jendpoint = "sleepz" then begin
            let s =
              match Http.query_param job.jreq "s" with
              | Some v -> (
                match float_of_string_opt v with
                | Some s when s >= 0.0 && s <= 10.0 -> s
                | _ -> client_err "s must be a number of seconds in 0..10")
              | None -> 0.05
            in
            Thread.delay s;
            (Printf.sprintf "{\"slept\":%s}" (Json.to_string (Json.float s)),
             false, false)
          end
          else run_query t recorder job.jreq job.jendpoint)
    with
    | payload, cached, coalesced ->
      let elapsed = Unix.gettimeofday () -. job.jenq in
      let body =
        envelope ~id:job.jid ~endpoint:job.jendpoint ~cached ~coalesced
          ~elapsed_s:elapsed ~payload
          ~spans:(spans_json recorder job.jreq)
      in
      (200, body, cached, coalesced)
    | exception Client_error m -> (400, json_error m, false, false)
    | exception Http.Bad_request m -> (400, json_error m, false, false)
    | exception e ->
      (500, json_error (Printf.sprintf "internal error: %s" (Printexc.to_string e)),
       false, false)
  in
  let status, body, cached, coalesced = finishing in
  let elapsed = Unix.gettimeofday () -. job.jenq in
  (* account before answering: a client that scrapes /metrics right
     after its response must see its own request counted *)
  if coalesced then
    incr_counter t "serve_coalesced_total"
      "Requests that joined another request's in-flight computation";
  count_request t ~endpoint:job.jendpoint ~status;
  observe_latency t ~endpoint:job.jendpoint elapsed;
  ring_push t
    {
      rid = job.jid;
      rendpoint = job.jendpoint;
      rstatus = status;
      rcached = cached;
      rcoalesced = coalesced;
      relapsed_s = elapsed;
    };
  (try Http.respond job.jfd ~status body
   with Unix.Unix_error _ | Sys_error _ -> () (* client gone *));
  (try Unix.close job.jfd with Unix.Unix_error _ -> ());
  add_gauge t "serve_inflight" inflight_help (-1.0)

(* ------------------------------------------------------------------ *)
(* Fast endpoints (answered on the accept thread)                       *)

let uptime t = Unix.gettimeofday () -. t.started_at

let healthz t =
  Json.to_string
    (Json.Obj [ ("ok", Json.Bool true); ("uptime_s", Json.float (uptime t)) ])

let metrics_text t =
  publish_queue_depth t;
  sync_store_counters t;
  set_gauge t "serve_uptime_seconds" "Seconds since the daemon started"
    (uptime t);
  with_reg t Metrics.render

let statusz t =
  let recent =
    Mutex.protect t.qlock (fun () ->
        let n = Array.length t.ring in
        let entries = ref [] in
        for i = 0 to n - 1 do
          (* oldest first *)
          match t.ring.((t.ring_next + i) mod n) with
          | None -> ()
          | Some e -> entries := e :: !entries
        done;
        !entries)
  in
  let store_stats = Store.stats t.store in
  let memo = Trace_memo.stats () in
  Json.to_string ~compact:false
    (Json.Obj
       [ ("ok", Json.Bool true);
         ("uptime_s", Json.float (uptime t));
         ("version", Json.String "1.0.0");
         ("ocaml", Json.String Sys.ocaml_version);
         ( "config",
           Json.Obj
             [ ("port", Json.Int t.bound_port);
               ("workers", Json.Int t.cfg.workers);
               ("queue_capacity", Json.Int t.cfg.queue_capacity);
               ("jobs", Json.Int t.cfg.jobs);
               ("cache_dir", Json.String (Store.dir t.store));
               ("cache_budget_bytes", Json.Int t.cfg.cache_budget_bytes);
               ("cache_version", Json.String cache_version) ] );
         ( "store",
           Json.Obj
             [ ("hits", Json.Int store_stats.Store.hits);
               ("misses", Json.Int store_stats.misses);
               ("evictions", Json.Int store_stats.evictions);
               ("quarantined", Json.Int store_stats.quarantined);
               ("puts", Json.Int store_stats.puts);
               ("bytes", Json.Int store_stats.bytes);
               ("entries", Json.Int store_stats.entries) ] );
         ( "memo",
           Json.Obj
             [ ("hits", Json.Int memo.Fs_util.Memo.hits);
               ("misses", Json.Int memo.misses);
               ("evictions", Json.Int memo.evictions);
               ("coalesced", Json.Int memo.coalesced) ] );
         ( "workloads",
           Json.List
             (List.map
                (fun (w : W.t) ->
                  Json.Obj
                    [ ("name", Json.String w.name);
                      ("scheduling",
                       Json.String (if w.dynamic then "dynamic" else "static")) ])
                Ws.every) );
         ( "recent",
           Json.List
             (List.rev_map
                (fun e ->
                  Json.Obj
                    [ ("id", Json.Int e.rid);
                      ("endpoint", Json.String e.rendpoint);
                      ("status", Json.Int e.rstatus);
                      ("cached", Json.Bool e.rcached);
                      ("coalesced", Json.Bool e.rcoalesced);
                      ("elapsed_s", Json.float e.relapsed_s) ])
                recent) ) ])

(* ------------------------------------------------------------------ *)
(* Routing and the accept loop                                          *)

let work_endpoints = [ "analyze"; "blame"; "hotlines"; "phases"; "repair"; "profile" ]

let initiate_stop t =
  Mutex.protect t.qlock (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        Condition.broadcast t.qcond
      end);
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

(* admit or reject with backpressure; the worker owns [fd] on success *)
let enqueue t fd req endpoint =
  let admitted =
    Mutex.protect t.qlock (fun () ->
        if t.stopping then `Stopping
        else if Queue.length t.queue >= t.cfg.queue_capacity then `Full
        else begin
          t.next_id <- t.next_id + 1;
          Queue.push
            {
              jid = t.next_id;
              jfd = fd;
              jreq = req;
              jendpoint = endpoint;
              jenq = Unix.gettimeofday ();
            }
            t.queue;
          Condition.signal t.qcond;
          `Admitted
        end)
  in
  match admitted with
  | `Admitted -> publish_queue_depth t; true
  | `Stopping ->
    count_request t ~endpoint ~status:503;
    (try
       Http.respond fd ~status:503
         ~headers:[ ("Retry-After", "1") ]
         (json_error "shutting down")
     with Unix.Unix_error _ | Sys_error _ -> ());
    false
  | `Full ->
    incr_counter t "serve_rejected_total"
      "Requests rejected with 503 because the queue was full";
    count_request t ~endpoint ~status:503;
    (try
       Http.respond fd ~status:503
         ~headers:[ ("Retry-After", "1") ]
         (json_error "queue full, retry later")
     with Unix.Unix_error _ | Sys_error _ -> ());
    false

(* the metric label of a path: the endpoint name without its slash, or a
   catch-all so unknown paths cannot explode the label cardinality *)
let endpoint_of t path =
  let bare =
    if String.length path > 1 && path.[0] = '/' then
      String.sub path 1 (String.length path - 1)
    else path
  in
  if List.mem bare work_endpoints then bare
  else
    match bare with
    | "healthz" | "metrics" | "statusz" | "quitquitquit" -> bare
    | "sleepz" when t.cfg.debug_endpoints -> bare
    | _ -> "other"

let route t fd (req : Http.request) =
  let endpoint = endpoint_of t req.Http.path in
  let answer ?content_type ?headers status body =
    count_request t ~endpoint ~status;
    try Http.respond ?content_type ?headers fd ~status body
    with Unix.Unix_error _ | Sys_error _ -> ()
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" ->
    answer 200 (healthz t);
    close ()
  | "GET", "/metrics" ->
    answer ~content_type:"text/plain; version=0.0.4" 200 (metrics_text t);
    close ()
  | "GET", "/statusz" ->
    answer 200 (statusz t);
    close ()
  | "POST", "/quitquitquit" ->
    answer 200 "{\"ok\":true,\"stopping\":true}";
    close ();
    initiate_stop t
  | "GET", "/sleepz" when t.cfg.debug_endpoints ->
    if not (enqueue t fd req "sleepz") then close ()
  | "POST", _ when List.mem endpoint work_endpoints ->
    if not (enqueue t fd req endpoint) then close ()
  | _, _ when endpoint <> "other" ->
    (* a known endpoint under the wrong method *)
    answer 405 (json_error (Printf.sprintf "%s does not take %s" req.Http.path req.Http.meth));
    close ()
  | _, path ->
    answer 404 (json_error (Printf.sprintf "no such endpoint %S" path));
    close ()

let handle_conn t fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.socket_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.socket_timeout_s
   with Unix.Unix_error _ -> ());
  match Http.read_request fd with
  | None -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Some req -> route t fd req
  | exception Http.Bad_request m ->
    (try Http.respond fd ~status:400 (json_error m)
     with Unix.Unix_error _ | Sys_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> (
    try Unix.close fd with Unix.Unix_error _ -> ())

let rec accept_loop t =
  let stopping () = Mutex.protect t.qlock (fun () -> t.stopping) in
  match Unix.accept t.listen_fd with
  | fd, _ ->
    handle_conn t fd;
    if not (stopping ()) then accept_loop t
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    if not (stopping ()) then accept_loop t
  | exception Unix.Unix_error _ ->
    (* the listener was shut down (stop/quitquitquit), or is broken
       beyond accepting; either way this thread is done *)
    ()

let rec worker_loop t =
  let job =
    Mutex.protect t.qlock (fun () ->
        let rec next () =
          if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
          else if t.stopping then None
          else begin
            Condition.wait t.qcond t.qlock;
            next ()
          end
        in
        next ())
  in
  match job with
  | None -> ()
  | Some job ->
    publish_queue_depth t;
    (try handle_job t job
     with e ->
       (* a handler bug must not kill the worker *)
       Printf.eprintf "falseshare serve: worker error: %s\n%!"
         (Printexc.to_string e));
    worker_loop t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Server.start: queue_capacity must be >= 1";
  (* a peer that disappears mid-write must be an EPIPE error, not a
     process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let bound_port =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
      Unix.listen listen_fd 64;
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> cfg.port
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  let store = Store.open_ ~budget_bytes:cfg.cache_budget_bytes cfg.cache_dir in
  let t =
    {
      cfg;
      listen_fd;
      bound_port;
      store;
      sf = Singleflight.create ();
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      next_id = 0;
      reg = Metrics.create ();
      reg_lock = Mutex.create ();
      compute_lock = Mutex.create ();
      last_store = Store.stats store;
      ring = Array.make (max cfg.recent 0) None;
      ring_next = 0;
      started_at = Unix.gettimeofday ();
      accept_thread = None;
      worker_threads = [];
      join_lock = Mutex.create ();
      join_cond = Condition.create ();
      join_state = `Idle;
    }
  in
  (* the domain pool's fan-out stats flow into this daemon's registry;
     the observer fires on worker threads, so it must take the registry
     lock *)
  Par.set_observer (Some (fun s -> with_reg t (fun reg -> Fs_obs.Pool.ingest reg s)));
  (* pre-register the instruments a scraper should see even before the
     first request *)
  with_reg t (fun reg ->
      ignore
        (Metrics.gauge reg "serve_queue_depth"
           ~help:"Admitted requests not yet being served");
      ignore
        (Metrics.gauge reg "serve_inflight"
           ~help:"Requests being served right now");
      ignore
        (Metrics.counter reg "serve_rejected_total"
           ~help:"Requests rejected with 503 because the queue was full");
      ignore
        (Metrics.counter reg "serve_coalesced_total"
           ~help:"Requests that joined another request's in-flight computation");
      ignore (Metrics.counter reg "serve_cache_hits_total" ~help:"Result-store hits");
      ignore
        (Metrics.counter reg "serve_cache_misses_total" ~help:"Result-store misses"));
  t.worker_threads <-
    List.init cfg.workers (fun _ -> Thread.create worker_loop t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

(* exactly one caller performs the joins; the rest block until it is
   done — and the join lock is never held across a Thread.join, so a
   concurrent [stop] can still get in to trigger the shutdown the
   joiner is waiting on *)
let join_all t =
  let mine =
    Mutex.protect t.join_lock (fun () ->
        match t.join_state with
        | `Idle ->
          t.join_state <- `Joining;
          true
        | `Joining | `Done -> false)
  in
  if mine then begin
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    List.iter Thread.join t.worker_threads;
    Par.set_observer None;
    Mutex.protect t.join_lock (fun () ->
        t.join_state <- `Done;
        Condition.broadcast t.join_cond)
  end
  else
    Mutex.protect t.join_lock (fun () ->
        while t.join_state <> `Done do
          Condition.wait t.join_cond t.join_lock
        done)

let shutdown t = initiate_stop t

let stop t =
  initiate_stop t;
  join_all t

let wait t = join_all t
