module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module Cell_trace = Fs_trace.Cell_trace
module Cell_event = Fs_trace.Cell_event
module Nonconcurrency = Fs_analysis.Nonconcurrency
module Summary = Fs_analysis.Summary
module Table = Fs_util.Table

type epoch = {
  index : int;
  per_proc : Mpcache.counts array;
  write_shared : (string * int) list;
}

type violation = { vepoch : int; vvar : string; vwriters : int }

type mapping = Exact | Folded

type t = {
  nprocs : int;
  block : int;
  epochs : epoch list;
  aggregate : Mpcache.counts;
  static_phases : int;
  mapping : mapping;
  violations : violation list;
}

let epoch_total e =
  let total = Mpcache.zero_counts () in
  Array.iter (Mpcache.add_into total) e.per_proc;
  total

let proc_mask_list mask =
  let rec go p acc =
    if 1 lsl p > mask then List.rev acc
    else go (p + 1) (if mask land (1 lsl p) <> 0 then p :: acc else acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Write-sharing per epoch, cut at the same barrier releases as the
   replay engine's epochs: variables written by >= 2 processors.       *)

let write_shared_per_epoch trace =
  let vars = Cell_trace.vars trace in
  let masks = Array.make (Array.length vars) 0 in
  let closed = ref [] in
  let close () =
    let acc = ref [] in
    Array.iteri
      (fun v mask ->
        if mask land (mask - 1) <> 0 then acc := (vars.(v), mask) :: !acc)
      masks;
    closed := List.sort compare !acc :: !closed;
    Array.fill masks 0 (Array.length masks) 0
  in
  Cell_trace.iter_packed
    (fun packed ->
      if Cell_event.packed_is_access packed && Cell_event.packed_write packed
      then begin
        let var = Cell_event.packed_var packed in
        masks.(var) <- masks.(var) lor (1 lsl Cell_event.packed_proc packed)
      end
      else if Cell_event.packed_tag packed = Cell_event.tag_barrier_release
      then close ())
    trace;
  (* the tail of the run after the last barrier is an epoch of its own *)
  close ();
  Array.of_list (List.rev !closed)

(* ------------------------------------------------------------------ *)
(* The static prediction: per phase, which variables does the summary
   analysis consider concurrently write-shared (written by >= 2 process
   ids)?  Lock words are exempt — their traffic is synchronization.     *)

let rec has_lock = function
  | Fs_ir.Ast.Scalar Fs_ir.Ast.Tlock -> true
  | Fs_ir.Ast.Scalar _ -> false
  | Fs_ir.Ast.Array (ty, _) -> has_lock ty
  | Fs_ir.Ast.Struct _ -> false

let lock_vars (prog : Fs_ir.Ast.program) =
  List.filter_map
    (fun (name, ty) -> if has_lock ty then Some name else None)
    prog.Fs_ir.Ast.globals

let predicted_write_shared summary =
  let phases = Summary.phases summary in
  let nprocs = Summary.nprocs summary in
  let keys = Summary.keys summary in
  Array.init phases (fun phase ->
      let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (key : Summary.key) ->
          for pid = 0 to nprocs - 1 do
            match Summary.get summary ~phase ~pid key with
            | Some acc when not (Fs_rsd.Rsd.Set.is_empty acc.Summary.writes) ->
              Hashtbl.replace tbl key.Summary.var
                (1 lsl pid
                 lor Option.value (Hashtbl.find_opt tbl key.Summary.var)
                       ~default:0)
            | _ -> ()
          done)
        keys;
      let shared = Hashtbl.create 16 in
      Hashtbl.iter
        (fun var mask -> if mask land (mask - 1) <> 0 then Hashtbl.replace shared var ())
        tbl;
      shared)

let cross_check prog ~nprocs epochs =
  let nc = Nonconcurrency.analyze prog in
  let static_phases = Nonconcurrency.phase_count nc in
  let mapping =
    if
      List.for_all (fun d -> d = 0) (Nonconcurrency.barrier_depths nc)
      && List.length epochs = static_phases
    then Exact
    else Folded
  in
  let summary = Summary.analyze prog ~nprocs in
  let predicted = predicted_write_shared summary in
  let locks = lock_vars prog in
  let allowed epoch_index var =
    List.mem var locks
    (* scheduler globals only exist at run time: the static analyses
       never see the deque traffic, so like lock words their
       write-sharing is expected, not a violation *)
    || Fs_sched.Sched.is_sched_var var
    ||
    match mapping with
    | Exact -> Hashtbl.mem predicted.(epoch_index) var
    | Folded -> Array.exists (fun tbl -> Hashtbl.mem tbl var) predicted
  in
  let violations =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun (var, writers) ->
            if allowed e.index var then None
            else Some { vepoch = e.index; vvar = var; vwriters = writers })
          e.write_shared)
      epochs
  in
  (static_phases, mapping, violations)

(* ------------------------------------------------------------------ *)

let analyze ?(cache_bytes = 32 * 1024) ?(assoc = 4) ?sched ?recorded prog plan
    ~nprocs ~block =
  let recorded =
    match recorded with Some r -> r | None -> Sim.record ?sched prog ~nprocs
  in
  let layout = Layout.realize prog plan ~block in
  let cache =
    Mpcache.create ~max_addr:(Layout.size layout)
      { Mpcache.nprocs; block; cache_bytes; assoc }
  in
  let trace = recorded.Sim.trace in
  let run = Fs_replay.Replay.simulate trace ~layout ~cache in
  let shared = write_shared_per_epoch trace in
  let epochs =
    Array.to_list
      (Array.mapi
         (fun index per_proc ->
           { index; per_proc; write_shared = shared.(index) })
         run.Fs_replay.Replay.epochs)
  in
  let aggregate = Mpcache.copy_counts run.Fs_replay.Replay.counts in
  let static_phases, mapping, violations = cross_check prog ~nprocs epochs in
  { nprocs; block; epochs; aggregate; static_phases; mapping; violations }

let fs_matrix t =
  let nepochs = List.length t.epochs in
  let m = Array.make_matrix t.nprocs nepochs 0.0 in
  List.iter
    (fun e ->
      Array.iteri
        (fun p (c : Mpcache.counts) ->
          m.(p).(e.index) <- float_of_int c.Mpcache.false_sh)
        e.per_proc)
    t.epochs;
  m

(* ------------------------------------------------------------------ *)

let procs_to_string mask =
  String.concat ","
    (List.map (Printf.sprintf "P%d") (proc_mask_list mask))

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "phase-resolved sharing (%d processors, %dB blocks): %d epochs over \
        %d static phases (%s mapping)\n\n"
       t.nprocs t.block (List.length t.epochs) t.static_phases
       (match t.mapping with Exact -> "exact" | Folded -> "folded"));
  let header =
    [ "epoch"; "accesses"; "misses"; "cold"; "repl"; "true sh."; "false sh.";
      "inval"; "write-shared" ]
  in
  let body =
    List.map
      (fun e ->
        let c = epoch_total e in
        let shared =
          match e.write_shared with
          | [] -> "-"
          | vars -> String.concat " " (List.map fst vars)
        in
        [ string_of_int e.index;
          string_of_int (Mpcache.accesses c);
          string_of_int (Mpcache.misses c);
          string_of_int c.Mpcache.cold;
          string_of_int c.repl;
          string_of_int c.true_sh;
          string_of_int c.false_sh;
          string_of_int c.invalidations;
          shared ])
      t.epochs
  in
  Buffer.add_string buf (Table.render ~header body);
  Buffer.add_string buf "\nfalse-sharing misses, processor x epoch:\n";
  Buffer.add_string buf (Fs_obs.Heatmap.render (fs_matrix t));
  (match t.violations with
   | [] ->
     Buffer.add_string buf
       "\nstatic cross-check: ok — every epoch's write-sharing was \
        predicted concurrent\n"
   | vs ->
     Buffer.add_string buf
       (Printf.sprintf "\nstatic cross-check: %d VIOLATION(S)\n"
          (List.length vs));
     List.iter
       (fun v ->
         Buffer.add_string buf
           (Printf.sprintf
              "  epoch %d: %s written by %s but not predicted \
               concurrently write-shared\n"
              v.vepoch v.vvar (procs_to_string v.vwriters)))
       vs);
  Buffer.contents buf
