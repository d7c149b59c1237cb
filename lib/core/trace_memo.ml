module Workload = Fs_workloads.Workload
module Cell_trace = Fs_trace.Cell_trace
module Cell_event = Fs_trace.Cell_event
module Interp = Fs_interp.Interp
module Par = Fs_util.Par

(* [stamp] pins the entry to the on-disk capture it came from (or will
   be written to): the file's byte size and mtime.  A capture that is
   re-recorded or replaced between lookups therefore misses instead of
   aliasing the stale in-memory entry; with no capture dir the stamp is
   empty and keys degenerate to the plain (workload, nprocs, scale,
   seed) tuple.  [seed] is the scheduler seed for dynamic
   (task-parallel) workloads: it changes the recorded schedule, so it is
   part of the trace's identity, in memory and in the capture filename
   alike. *)
type key = {
  workload : string;
  nprocs : int;
  scale : int;
  seed : int option;
  stamp : string;
}

type entry = {
  prog : Fs_ir.Ast.program;
  trace : Cell_trace.t;
  interp : Interp.result;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable disk_loads : int;
  mutable coalesced : int;
}

(* The memo is process-global, like the workload registry it mirrors.
   All bookkeeping happens under [lock] so the experiment drivers can
   consult it around their Par fan-outs; interpretation itself always
   runs outside the lock.  [inflight] holds the keys some caller is
   currently recording: a second caller asking for one blocks on [cond]
   instead of recording the same trace again, so N tenants hammering the
   same configuration cost one interpretation. *)
let lock = Mutex.create ()
let cond = Condition.create ()
let table : (key, entry * int ref) Hashtbl.t = Hashtbl.create 32
let inflight : (key, unit) Hashtbl.t = Hashtbl.create 8
let tick = ref 0
let capacity = ref 128
let capture_dir : string option ref = ref None
let stats = { hits = 0; misses = 0; evictions = 0; disk_loads = 0; coalesced = 0 }

let locked f = Mutex.protect lock f

let set_capacity n =
  if n < 1 then invalid_arg "Trace_memo.set_capacity: capacity must be >= 1";
  locked (fun () -> capacity := n)

let set_capture_dir d = locked (fun () -> capture_dir := d)

let clear () =
  locked (fun () ->
      Hashtbl.reset table;
      tick := 0;
      stats.hits <- 0;
      stats.misses <- 0;
      stats.evictions <- 0;
      stats.disk_loads <- 0;
      stats.coalesced <- 0)

let read_stats () =
  locked (fun () ->
      (stats.hits, stats.misses, stats.evictions, stats.disk_loads))

let read_coalesced () = locked (fun () -> stats.coalesced)

(* ------------------------------------------------------------------ *)

let path_of dir k =
  let seed =
    match k.seed with None -> "" | Some s -> Printf.sprintf "-seed%d" s
  in
  Filename.concat dir
    (Printf.sprintf "%s-p%d-s%d%s.fstrace" k.workload k.nprocs k.scale seed)

let stamp_of dir k =
  match dir with
  | None -> ""
  | Some d -> (
    let path = path_of d k in
    match Unix.stat path with
    | st -> Printf.sprintf "%d:%h" st.Unix.st_size st.Unix.st_mtime
    | exception Unix.Unix_error _ -> "")

(* A disk-loaded trace carries no final memory image, but the summary
   counters of the original run are all derivable from the event
   stream. *)
let result_of_trace trace =
  let nprocs = Cell_trace.nprocs trace in
  let work = Array.make nprocs 0 in
  let accesses = Array.make nprocs 0 in
  let barriers = ref 0 in
  Cell_trace.iter
    (function
      | Cell_event.Access { proc; _ } -> accesses.(proc) <- accesses.(proc) + 1
      | Cell_event.Work { proc; amount } -> work.(proc) <- work.(proc) + amount
      | Cell_event.Barrier_release -> incr barriers
      | _ -> ())
    trace;
  {
    Interp.work;
    accesses;
    barrier_episodes = !barriers;
    store = Hashtbl.create 1;
    (* full runtime counters (tasks, attempts) are not in the stream;
       consumers wanting steal counts scan the trace's Steal events *)
    sched = None;
  }

let compute dir (w : Workload.t) k =
  Fs_obs.Span.timed "record"
    ~attrs:
      [ ("workload", k.workload);
        ("nprocs", string_of_int k.nprocs);
        ("scale", string_of_int k.scale) ]
  @@ fun () ->
  let prog = w.Workload.build ~nprocs:k.nprocs ~scale:k.scale in
  let from_disk =
    match dir with
    | None -> None
    | Some d -> (
      let path = path_of d k in
      if not (Sys.file_exists path) then None
      else
        match Cell_trace.read_file path with
        | trace when Cell_trace.nprocs trace = k.nprocs ->
          Some { prog; trace; interp = result_of_trace trace }
        | _ -> None
        | exception (Cell_trace.Corrupt _ | Unix.Unix_error _) -> None)
  in
  match from_disk with
  | Some e ->
    Fs_obs.Span.note "source" "disk";
    (e, true)
  | None ->
    Fs_obs.Span.note "source" "interp";
    let sched = Option.map Fs_sched.Sched.seeded k.seed in
    let trace, interp = Interp.record ?sched prog ~nprocs:k.nprocs in
    (match dir with
     | Some d when Sys.file_exists d -> Cell_trace.write_file trace (path_of d k)
     | _ -> ());
    ({ prog; trace; interp }, false)

(* under [lock] *)
let insert k e =
  stats.misses <- stats.misses + 1;
  if not (Hashtbl.mem table k) then begin
    while Hashtbl.length table >= !capacity do
      let victim =
        Hashtbl.fold
          (fun k (_, last) acc ->
            match acc with
            | Some (_, best) when !best <= !last -> acc
            | _ -> Some (k, last))
          table None
      in
      match victim with
      | Some (vk, _) ->
        Hashtbl.remove table vk;
        stats.evictions <- stats.evictions + 1
      | None -> assert false
    done;
    incr tick;
    Hashtbl.add table k (e, ref !tick)
  end

let find k =
  match Hashtbl.find_opt table k with
  | Some (e, last) ->
    incr tick;
    last := !tick;
    stats.hits <- stats.hits + 1;
    Some e
  | None -> None

let key_of dir (w : Workload.t) ~seed ~nprocs ~scale =
  let base = { workload = w.Workload.name; nprocs; scale; seed; stamp = "" } in
  { base with stamp = stamp_of dir base }

(* under [lock]: computing [k] may have created or rewritten the capture
   file, so the entry is inserted under the key's refreshed stamp — the
   one the next lookup will compute *)
let insert_fresh dir k e =
  insert { k with stamp = stamp_of dir k } e

(* under [lock]: claim [k] for this caller, or wait out whoever holds it.
   Returns [true] when the caller must compute, [false] when the leader
   finished while we waited (the caller should re-check the table). *)
let claim_or_wait k =
  if Hashtbl.mem inflight k then begin
    while Hashtbl.mem inflight k do
      Condition.wait cond lock
    done;
    stats.coalesced <- stats.coalesced + 1;
    false
  end
  else begin
    Hashtbl.add inflight k ();
    true
  end

(* under [lock] *)
let release k =
  Hashtbl.remove inflight k;
  Condition.broadcast cond

let rec get ?seed (w : Workload.t) ~nprocs ~scale =
  let dir = locked (fun () -> !capture_dir) in
  let k = key_of dir w ~seed ~nprocs ~scale in
  let action =
    locked (fun () ->
        match find k with
        | Some e -> `Hit e
        | None -> if claim_or_wait k then `Compute else `Retry)
  in
  match action with
  | `Hit e -> e
  | `Retry ->
    (* the leader finished (or failed); its entry is in the table unless
       it was evicted or raised — either way the re-check does the right
       thing *)
    get ?seed w ~nprocs ~scale
  | `Compute -> (
    match compute dir w k with
    | e, from_disk ->
      locked (fun () ->
          insert_fresh dir k e;
          if from_disk then stats.disk_loads <- stats.disk_loads + 1;
          release k);
      e
    | exception ex ->
      locked (fun () -> release k);
      raise ex)

let get_all ?jobs ?seed configs =
  let dir = locked (fun () -> !capture_dir) in
  let keyed =
    List.map
      (fun (w, nprocs, scale) -> (w, key_of dir w ~seed ~nprocs ~scale))
      configs
  in
  let cached = locked (fun () -> List.map (fun (_, k) -> find k) keyed) in
  (* distinct missing keys, first occurrence wins *)
  let missing = Hashtbl.create 16 in
  List.iter2
    (fun (w, k) hit ->
      if hit = None && not (Hashtbl.mem missing k) then Hashtbl.add missing k w)
    keyed cached;
  (* claim the keys nobody else is recording; the rest are in flight on
     another thread and are fetched with a blocking [get] below *)
  let todo =
    locked (fun () ->
        Hashtbl.fold
          (fun k w acc ->
            if Hashtbl.mem inflight k then acc
            else begin
              Hashtbl.add inflight k ();
              (w, k) :: acc
            end)
          missing [])
  in
  let computed =
    match Par.map ?jobs (fun (w, k) -> (k, compute dir w k)) todo with
    | r -> r
    | exception ex ->
      locked (fun () -> List.iter (fun (_, k) -> release k) todo);
      raise ex
  in
  locked (fun () ->
      List.iter
        (fun (k, (e, from_disk)) ->
          insert_fresh dir k e;
          if from_disk then stats.disk_loads <- stats.disk_loads + 1;
          release k)
        computed);
  List.map2
    (fun (w, k) hit ->
      match hit with
      | Some e -> e
      | None -> (
        match List.assoc_opt k computed with
        | Some (e, _) -> e
        | None -> get ?seed:k.seed w ~nprocs:k.nprocs ~scale:k.scale))
    keyed cached
