(* [FALSESHARE_JOBS] overrides the detected core count for every caller
   that does not pass an explicit job count; a CLI [--jobs] always wins
   because it reaches [map] as an explicit argument and this function
   is only the default.  Malformed or non-positive values
   fall back to the detected count rather than erroring: the variable is
   an operator knob, not an API. *)
let default_jobs () =
  match Sys.getenv_opt "FALSESHARE_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> min n 64
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Pool instrumentation.  Every fan-out measures, per worker, how many
   tasks it claimed, how long it spent running them, and how long it
   spent idle (claim latency plus the tail after the queue drained).
   Task durations additionally land in fixed log-spaced histograms so
   the telemetry layer can expose them without keeping one float per
   task. *)

(* finite upper bounds in seconds; one overflow bucket rides on top *)
let bucket_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |]

let nbuckets = Array.length bucket_bounds + 1

type worker_stats = {
  worker : int;
  tasks : int;
  busy_s : float;
  wait_s : float;
  run_hist : int array;
  wait_hist : int array;
}

type stats = {
  jobs : int;
  task_count : int;
  wall_s : float;
  workers : worker_stats array;
}

(* mutable accumulation cell; each worker owns exactly one, so the
   fan-out needs no locking around its bookkeeping *)
type cell = {
  mutable c_tasks : int;
  mutable c_busy : float;
  mutable c_wait : float;
  c_run_hist : int array;
  c_wait_hist : int array;
}

let fresh_cell () =
  { c_tasks = 0; c_busy = 0.; c_wait = 0.;
    c_run_hist = Array.make nbuckets 0; c_wait_hist = Array.make nbuckets 0 }

let observe hist v =
  let n = Array.length bucket_bounds in
  let rec find i = if i >= n || v <= bucket_bounds.(i) then i else find (i + 1) in
  let i = find 0 in
  hist.(i) <- hist.(i) + 1

let finalize worker (c : cell) =
  { worker; tasks = c.c_tasks; busy_s = c.c_busy; wait_s = c.c_wait;
    run_hist = Array.copy c.c_run_hist; wait_hist = Array.copy c.c_wait_hist }

(* The observer is process-global so long-lived front ends (the CLI, the
   bench harness) can fold every internal fan-out — including the ones
   buried inside Experiments and Trace_memo — into one metrics registry
   without threading a recorder through each call site. *)
let observer : (stats -> unit) option ref = ref None
let observer_lock = Mutex.create ()

let set_observer f = Mutex.protect observer_lock (fun () -> observer := f)

let notify s =
  match Mutex.protect observer_lock (fun () -> !observer) with
  | None -> ()
  | Some f -> f s

let map_with_stats ?jobs f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  (* when the caller doesn't say, never exceed the core count —
     oversubscribing OCaml 5 domains serializes on the stop-the-world
     minor GC; an explicit [jobs] is honored (a CI box with one core
     should still produce a 4-worker summary when asked for --jobs 4),
     capped only by the task count and a hard domain-sanity limit *)
  let jobs =
    max 1
      (min
         (min (Option.value jobs ~default:(default_jobs ())) 64)
         (max n 1))
  in
  let t_start = Unix.gettimeofday () in
  if jobs <= 1 || n <= 1 then begin
    let cell = fresh_cell () in
    let results =
      List.map
        (fun x ->
          let t0 = Unix.gettimeofday () in
          let r = f x in
          let dt = Unix.gettimeofday () -. t0 in
          cell.c_tasks <- cell.c_tasks + 1;
          cell.c_busy <- cell.c_busy +. dt;
          observe cell.c_run_hist dt;
          r)
        xs
    in
    let wall = Unix.gettimeofday () -. t_start in
    let s =
      { jobs = 1; task_count = n; wall_s = wall;
        workers = [| finalize 0 cell |] }
    in
    notify s;
    (results, s)
  end
  else begin
    let results = Array.make n None in
    let error : exn option Atomic.t = Atomic.make None in
    let next = Atomic.make 0 in
    let cells = Array.init jobs (fun _ -> fresh_cell ()) in
    let worker w =
      let cell = cells.(w) in
      let rec loop last_end =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get error = None then begin
          let t0 = Unix.gettimeofday () in
          let wait = t0 -. last_end in
          cell.c_wait <- cell.c_wait +. wait;
          observe cell.c_wait_hist wait;
          (match f arr.(i) with
           | v ->
             let t1 = Unix.gettimeofday () in
             cell.c_tasks <- cell.c_tasks + 1;
             cell.c_busy <- cell.c_busy +. (t1 -. t0);
             observe cell.c_run_hist (t1 -. t0);
             results.(i) <- Some v;
             loop t1
           | exception e ->
             let t1 = Unix.gettimeofday () in
             cell.c_tasks <- cell.c_tasks + 1;
             cell.c_busy <- cell.c_busy +. (t1 -. t0);
             observe cell.c_run_hist (t1 -. t0);
             ignore (Atomic.compare_and_set error None (Some e));
             loop t1)
        end
        else
          (* queue drained (or a task failed): the idle tail until the
             join counts as wait so utilization = busy / wall adds up *)
          cell.c_wait <- cell.c_wait +. (Unix.gettimeofday () -. last_end)
      in
      loop (Unix.gettimeofday ())
    in
    let domains = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
    worker 0;
    List.iter Domain.join domains;
    (match Atomic.get error with Some e -> raise e | None -> ());
    let out =
      Array.to_list
        (Array.map
           (function
             | Some v -> v
             | None -> invalid_arg "Par.map: task dropped (worker died?)")
           results)
    in
    let wall = Unix.gettimeofday () -. t_start in
    let s =
      { jobs; task_count = n; wall_s = wall;
        workers = Array.mapi finalize cells }
    in
    notify s;
    (out, s)
  end

let map ?jobs f xs = fst (map_with_stats ?jobs f xs)
let iter ?jobs f xs = ignore (map ?jobs (fun x -> f x) xs)

(* ------------------------------------------------------------------ *)
(* The deterministic pool summary: workers in index order, fixed
   columns, fixed number formats — only the measured values vary. *)

let ms s = Printf.sprintf "%.1f ms" (s *. 1000.0)

let utilization (s : stats) (w : worker_stats) =
  if s.wall_s > 0. then w.busy_s /. s.wall_s else 0.

let render_stats (s : stats) =
  let header = [ "worker"; "tasks"; "busy"; "wait"; "util" ] in
  let body =
    Array.to_list
      (Array.map
         (fun w ->
           [ Printf.sprintf "W%d" w.worker;
             string_of_int w.tasks;
             ms w.busy_s;
             ms w.wait_s;
             Table.pct (utilization s w) ])
         s.workers)
  in
  let busy = Array.fold_left (fun acc w -> acc +. w.busy_s) 0. s.workers in
  let total =
    [ "total"; string_of_int s.task_count; ms busy; "-";
      (if s.wall_s > 0. then
         Table.pct (busy /. (s.wall_s *. float_of_int s.jobs))
       else "-") ]
  in
  Table.render ~header (body @ [ total ])
  ^ Printf.sprintf "%d job(s), %d task(s), wall %s\n" s.jobs s.task_count
      (ms s.wall_s)
