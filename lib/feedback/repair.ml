module Ast = Fs_ir.Ast
module Cells = Fs_ir.Cells
module Plan = Fs_layout.Plan
module Layout = Fs_layout.Layout
module Mpcache = Fs_cache.Mpcache
module Json = Fs_obs.Json
module Hotlines = Falseshare.Hotlines
module Attribution = Falseshare.Attribution
module Sim = Falseshare.Sim

type options = { max_iters : int; top : int }

let default_options =
  { max_iters = Falseshare.Request.default_max_iters;
    top = Falseshare.Request.default_top "repair" }

(* the cost model's score penalties: per cache block of layout growth,
   and per estimated injected pointer load *)
let space_weight = 0.25
let load_weight = 0.05

type kind =
  | Pad_hot_scalars of string list
  | Pad_lock_cells
  | Partition_array of { ways : int; chunked : bool }
  | Widen_pad
  | Pad_elements
  | Isolate_variable
  | Indirect_fields of string list

type candidate = {
  target : string;
  kind : kind;
  adds : Plan.action list;
  drops : Plan.action list;
  est_fs : int;
  space_blocks : int;
  load_est : int;
  score : float;
}

let candidate_label c =
  match c.kind with
  | Pad_hot_scalars vars ->
    Printf.sprintf "pad & align busy scalars {%s}" (String.concat ", " vars)
  | Pad_lock_cells -> "pad & align lock cells"
  | Partition_array { ways; chunked } ->
    Printf.sprintf "regroup %s %d-way (%s) to block-align its partitions"
      c.target ways
      (if chunked then "chunked" else "strided")
  | Widen_pad -> Printf.sprintf "widen the pad of %s to per-element" c.target
  | Pad_elements -> Printf.sprintf "pad & align each element of %s" c.target
  | Isolate_variable -> Printf.sprintf "isolate %s in its own block(s)" c.target
  | Indirect_fields fields ->
    Printf.sprintf "indirect per-process fields %s.{%s}" c.target
      (String.concat ", " fields)

let apply plan cand =
  let base = List.filter (fun a -> not (List.mem a cand.drops)) plan in
  Plan.merge base cand.adds

(* ------------------------------------------------------------------ *)
(* Candidate extraction                                               *)
(* ------------------------------------------------------------------ *)

let is_pseudo v = v = Attribution.pointer_owner || v = Attribution.unmapped_owner

(* Blocks holding at least one lock cell under [layout]. *)
let lock_blocks prog layout ~block =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, ty) ->
      let vl = Layout.lookup layout v in
      Cells.iter_scalars prog ty (fun i s ->
          if s = Ast.Tlock then
            Hashtbl.replace tbl (vl.Layout.addr.(i) / block) ()))
    prog.Ast.globals;
  tbl

(* Per-cell writer masks read off the tracked lines: bit [p] of the mask is
   set when processor [p] wrote the cell's word; -1 when the cell's line
   was not tracked. *)
let cell_masks (h : Hotlines.t) layout var ncells =
  let block = h.Hotlines.block in
  let lines = Hashtbl.create 16 in
  List.iter
    (fun (hl : Hotlines.hot) ->
      Hashtbl.replace lines hl.line.Mpcache.line_block
        hl.line.Mpcache.word_writers)
    h.hot;
  let vl = Layout.lookup layout var in
  Array.init ncells (fun c ->
      let addr = vl.Layout.addr.(c) in
      match Hashtbl.find_opt lines (addr / block) with
      | Some ww -> ww.((addr mod block) / Ast.word_size)
      | None -> -1)

(* Lengths of maximal runs of equal, known, written masks. *)
let mask_runs masks =
  let runs = ref [] in
  let n = Array.length masks in
  let i = ref 0 in
  while !i < n do
    let m = masks.(!i) in
    let j = ref !i in
    while !j < n && masks.(!j) = m do
      incr j
    done;
    if m > 0 then runs := (!j - !i) :: !runs;
    i := !j
  done;
  List.rev !runs

(* Most frequent run length; ties broken toward the longer run (partial
   partitions at the array tail produce one short run each). *)
let mode_run runs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace tbl r
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    runs;
  Hashtbl.fold
    (fun len cnt best ->
      match best with
      | Some (blen, bcnt) when (cnt, len) <= (bcnt, blen) -> best
      | _ -> Some (len, cnt))
    tbl None

(* Infer the dynamic partitioning of an array from the word-writer masks:
   runs of adjacent cells sharing a writer set are contiguous partitions
   (regroup chunked so each starts on a block boundary); a periodic mask
   over the outer index is a strided partition. *)
let infer_partition prog (h : Hotlines.t) layout var ty =
  match ty with
  | Ast.Array (elt_ty, d0) -> (
    let cells_per_outer = Cells.count prog elt_ty in
    let ncells = cells_per_outer * d0 in
    let masks = cell_masks h layout var ncells in
    let known =
      Array.fold_left (fun n m -> if m >= 0 then n + 1 else n) 0 masks
    in
    let distinct = Hashtbl.create 8 in
    Array.iter (fun m -> if m > 0 then Hashtbl.replace distinct m ()) masks;
    if 2 * known < ncells || Hashtbl.length distinct < 2 then None
    else
      match mode_run (mask_runs masks) with
      | None -> None
      | Some (run, _) ->
        if run >= 2 * cells_per_outer && run mod cells_per_outer = 0 then begin
          let chunk = run / cells_per_outer in
          let ways = (d0 + chunk - 1) / chunk in
          if ways >= 2 && ways <= d0 then Some (ways, true) else None
        end
        else if run = cells_per_outer then begin
          (* adjacent outer elements have different writers: look for the
             smallest period over the outer index *)
          let om = Array.init d0 (fun i -> masks.(i * cells_per_outer)) in
          let valid p =
            let ok = ref true in
            for i = 0 to d0 - 1 - p do
              if om.(i) >= 0 && om.(i + p) >= 0 && om.(i) <> om.(i + p) then
                ok := false
            done;
            !ok
          in
          let rec find p =
            if p > d0 / 2 then None
            else if valid p then Some (p, false)
            else find (p + 1)
          in
          find 2
        end
        else None)
  | _ -> None

let indirect_fields prog (h : Hotlines.t) sname =
  let s = Ast.find_struct prog sname in
  List.filter_map
    (fun (f, fty) ->
      match fty with
      | Ast.Array (_, n) when n = h.Hotlines.nprocs -> Some f
      | _ -> None)
    s.Ast.fields

let score_candidate prog plan ~block ~base_bytes c =
  match
    try
      let bytes = Layout.size (Layout.realize prog (apply plan c) ~block) in
      Some ((bytes - base_bytes) / block)
    with Plan.Plan_error _ -> None
  with
  | None -> None
  | Some blocks ->
    let score =
      float_of_int c.est_fs
      -. (space_weight *. float_of_int blocks)
      -. (load_weight *. float_of_int c.load_est)
    in
    Some { c with space_blocks = blocks; score }

let extract prog plan (h : Hotlines.t) =
  let block = h.Hotlines.block in
  let layout = Layout.realize prog plan ~block in
  let base_bytes = Layout.size layout in
  let claimed = Plan.transformed_vars plan in
  let is_claimed v = List.mem v claimed in
  let locks = lock_blocks prog layout ~block in
  (* any line carrying false-sharing misses is a lead, whatever the
     dominant verdict — the paper's busy scalars (Maxflow's queue heads)
     hide on true-sharing-dominant lines, and the accept gate will throw
     out repairs that do not actually help *)
  let fs_lines =
    List.filter
      (fun (hl : Hotlines.hot) -> hl.counts.Mpcache.false_sh > 0)
      h.hot
  in
  let lock_lines, data_lines =
    List.partition
      (fun (hl : Hotlines.hot) ->
        Hashtbl.mem locks hl.line.Mpcache.line_block)
      fs_lines
  in
  let sum_fs ls =
    List.fold_left
      (fun a (hl : Hotlines.hot) -> a + hl.counts.Mpcache.false_sh)
      0 ls
  in
  let raw = ref [] in
  let mk target kind adds drops est_fs load_est =
    raw :=
      { target; kind; adds; drops; est_fs; space_blocks = 0; load_est;
        score = 0. }
      :: !raw
  in
  (* a falsely shared line holding a lock: pad the lock cells *)
  if lock_lines <> [] && not (List.mem Plan.Pad_locks plan) then
    mk "(locks)" Pad_lock_cells [ Plan.Pad_locks ] [] (sum_fs lock_lines) 0;
  (* group the data lines by owning variable, hottest owner first *)
  let by_owner : (string, Hotlines.hot list ref) Hashtbl.t = Hashtbl.create 8 in
  let owners = ref [] in
  List.iter
    (fun (hl : Hotlines.hot) ->
      if not (is_pseudo hl.owner) then
        match Hashtbl.find_opt by_owner hl.owner with
        | Some l -> l := hl :: !l
        | None ->
          Hashtbl.add by_owner hl.owner (ref [ hl ]);
          owners := hl.owner :: !owners)
    data_lines;
  let owners = List.rev !owners in
  let lines_of v = List.rev !(Hashtbl.find by_owner v) in
  (* busy scalars: one joint candidate padding every unclaimed data scalar
     co-allocated in the scalar-owned hot blocks *)
  let scalar_owners =
    List.filter
      (fun v ->
        match List.assoc_opt v prog.Ast.globals with
        | Some ty -> Cells.count prog ty = 1 && not (is_claimed v)
        | None -> false)
      owners
  in
  (if scalar_owners <> [] then begin
     let lines = List.concat_map lines_of scalar_owners in
     let hot_blocks = Hashtbl.create 8 in
     List.iter
       (fun (hl : Hotlines.hot) ->
         Hashtbl.replace hot_blocks hl.line.Mpcache.line_block ())
       lines;
     let pads =
       List.filter_map
         (fun (v, ty) ->
           if Cells.count prog ty <> 1 || is_claimed v then None
           else
             match ty with
             | Ast.Scalar Ast.Tlock -> None
             | _ ->
               let vl = Layout.lookup layout v in
               if Hashtbl.mem hot_blocks (vl.Layout.addr.(0) / block) then
                 Some v
               else None)
         prog.Ast.globals
     in
     if pads <> [] then
       mk (List.hd scalar_owners) (Pad_hot_scalars pads)
         (List.map (fun v -> Plan.Pad_align { var = v; element = false }) pads)
         [] (sum_fs lines) 0
   end);
  (* arrays and records, one owner at a time *)
  List.iter
    (fun v ->
      match List.assoc_opt v prog.Ast.globals with
      | None -> ()
      | Some ty when Cells.count prog ty = 1 -> ()
      | Some ty ->
        let lines = lines_of v in
        let est = sum_fs lines in
        if is_claimed v then begin
          (* the one repair available to an already-transformed variable:
             widen a whole-variable pad to per-element *)
          match
            List.find_opt
              (function
                | Plan.Pad_align { var; element = false } -> var = v
                | _ -> false)
              plan
          with
          | Some old ->
            mk v Widen_pad
              [ Plan.Pad_align { var = v; element = true } ]
              [ old ] est 0
          | None -> ()
        end
        else begin
          let loads =
            List.fold_left
              (fun a (hl : Hotlines.hot) ->
                a + hl.line.Mpcache.line_reads + hl.line.Mpcache.line_writes)
              0 lines
          in
          let isolate () =
            mk v Isolate_variable
              [ Plan.Pad_align { var = v; element = false } ]
              [] est 0
          in
          let pad_elements () =
            mk v Pad_elements
              [ Plan.Pad_align { var = v; element = true } ]
              [] est 0
          in
          match Cells.array_dims prog ty with
          | Some (_, Ast.Scalar s) ->
            if s <> Ast.Tlock then begin
              (match infer_partition prog h layout v ty with
               | Some (ways, chunked) ->
                 mk v
                   (Partition_array { ways; chunked })
                   [ Plan.Regroup { var = v; ways; chunked } ]
                   [] est 0
               | None -> ());
              isolate ();
              pad_elements ()
            end
          | Some (_, Ast.Struct sname) ->
            (match indirect_fields prog h sname with
             | [] -> ()
             | fields ->
               mk v (Indirect_fields fields)
                 [ Plan.Indirect { var = v; fields } ]
                 [] est loads);
            pad_elements ();
            isolate ()
          | Some (_, Ast.Array _) -> ()
          | None -> isolate ()
        end)
    owners;
  List.rev !raw
  |> List.filter_map (score_candidate prog plan ~block ~base_bytes)
  |> List.sort (fun a b ->
         let c = compare b.score a.score in
         if c <> 0 then c
         else
           let c = compare b.est_fs a.est_fs in
           if c <> 0 then c
           else
             let c = compare a.target b.target in
             if c <> 0 then c
             else compare (candidate_label a) (candidate_label b))

(* ------------------------------------------------------------------ *)
(* The refinement loop                                                *)
(* ------------------------------------------------------------------ *)

type iteration = {
  index : int;
  considered : candidate list;
  applied : candidate option;
  fs_before : int;
  fs_after : int;
  misses_before : int;
  misses_after : int;
}

type stop = Zero_fs | Exhausted | No_gain | Iteration_cap

let stop_to_string = function
  | Zero_fs -> "no false-sharing misses remain"
  | Exhausted -> "no repair candidates remain"
  | No_gain -> "no further false-sharing improvement"
  | Iteration_cap -> "iteration cap reached"

type t = {
  nprocs : int;
  block : int;
  plan0 : Plan.t;
  plan : Plan.t;
  initial : Mpcache.counts;
  final : Mpcache.counts;
  iterations : iteration list;
  stop : stop;
}

let accepted t =
  List.length (List.filter (fun it -> it.applied <> None) t.iterations)

let removed_fraction t =
  let fs0 = t.initial.Mpcache.false_sh in
  if fs0 = 0 then 0.
  else float_of_int (fs0 - t.final.Mpcache.false_sh) /. float_of_int fs0

let refine ?(options = default_options) ~recorded prog plan0 ~nprocs ~block =
  Fs_obs.Span.timed "refine"
    ~attrs:
      [ ("nprocs", string_of_int nprocs);
        ("block", string_of_int block);
        ("max_iters", string_of_int options.max_iters) ]
  @@ fun () ->
  Plan.validate prog plan0;
  let eval plan =
    Mpcache.copy_counts
      (Sim.cache_sim ~recorded prog plan ~nprocs ~block).Sim.counts
  in
  let c0 = eval plan0 in
  let rec loop plan (c : Mpcache.counts) naccepted iters =
    if c.Mpcache.false_sh = 0 then (plan, c, List.rev iters, Zero_fs)
    else if naccepted >= options.max_iters then
      (plan, c, List.rev iters, Iteration_cap)
    else begin
      (* each iteration is its own span; the recursion happens outside it
         so successive iterations are siblings under "refine", not an
         ever-deepening nest *)
      let outcome =
        Fs_obs.Span.timed "iteration"
          ~attrs:[ ("index", string_of_int (naccepted + 1)) ]
        @@ fun () ->
        let h =
          Hotlines.analyze ~top:options.top ~recorded prog plan ~nprocs ~block
        in
        match extract prog plan h with
        | [] -> `Stop (plan, c, List.rev iters, Exhausted)
        | cands -> (
          (* try candidates best-first against the accept gate: false sharing
             must strictly drop and total misses must not rise *)
          let pick =
            List.find_map
              (fun cand ->
                match
                  try Some (apply plan cand) with Plan.Plan_error _ -> None
                with
                | None -> None
                | Some plan' ->
                  let c' = eval plan' in
                  if
                    c'.Mpcache.false_sh < c.Mpcache.false_sh
                    && Mpcache.misses c' <= Mpcache.misses c
                  then Some (cand, plan', c')
                  else None)
              cands
          in
          Fs_obs.Span.note "candidates" (string_of_int (List.length cands));
          match pick with
          | None ->
            let it =
              { index = naccepted + 1; considered = cands; applied = None;
                fs_before = c.Mpcache.false_sh; fs_after = c.Mpcache.false_sh;
                misses_before = Mpcache.misses c;
                misses_after = Mpcache.misses c }
            in
            `Stop (plan, c, List.rev (it :: iters), No_gain)
          | Some (cand, plan', c') ->
            let it =
              { index = naccepted + 1; considered = cands; applied = Some cand;
                fs_before = c.Mpcache.false_sh; fs_after = c'.Mpcache.false_sh;
                misses_before = Mpcache.misses c;
                misses_after = Mpcache.misses c' }
            in
            `Continue (plan', c', naccepted + 1, it :: iters))
      in
      match outcome with
      | `Stop r -> r
      | `Continue (plan', c', n', iters') -> loop plan' c' n' iters'
    end
  in
  let plan, final, iterations, stop = loop plan0 c0 0 [] in
  { nprocs; block; plan0; plan; initial = c0; final; iterations; stop }

(* ------------------------------------------------------------------ *)

let render t =
  let b = Buffer.create 1024 in
  let fs0 = t.initial.Mpcache.false_sh and fs1 = t.final.Mpcache.false_sh in
  Printf.bprintf b
    "feedback repair (%d processors, %dB blocks): false sharing %d -> %d"
    t.nprocs t.block fs0 fs1;
  if fs0 > 0 then Printf.bprintf b " (-%.1f%%)" (100. *. removed_fraction t);
  Printf.bprintf b ", total misses %d -> %d\n"
    (Mpcache.misses t.initial)
    (Mpcache.misses t.final);
  List.iter
    (fun it ->
      match it.applied with
      | Some c ->
        Printf.bprintf b
          "  iter %d: %s  [est -%d FS, %+d block(s)%s]  FS %d -> %d, misses \
           %d -> %d  (%d candidate(s) scored)\n"
          it.index (candidate_label c) c.est_fs c.space_blocks
          (if c.load_est > 0 then
             Printf.sprintf ", ~%d pointer loads" c.load_est
           else "")
          it.fs_before it.fs_after it.misses_before it.misses_after
          (List.length it.considered)
      | None ->
        Printf.bprintf b
          "  iter %d: %d candidate(s) scored, none passed the accept gate\n"
          it.index
          (List.length it.considered))
    t.iterations;
  Printf.bprintf b "  fixpoint: %s after %d accepted repair(s)\n"
    (stop_to_string t.stop) (accepted t);
  Printf.bprintf b "final plan: %s\n" (Format.asprintf "%a" Plan.pp t.plan);
  Buffer.contents b

let counts_json (c : Mpcache.counts) =
  Json.Obj
    [ ("reads", Json.Int c.Mpcache.reads);
      ("writes", Json.Int c.writes);
      ("cold", Json.Int c.cold);
      ("replacement", Json.Int c.repl);
      ("true_sharing", Json.Int c.true_sh);
      ("false_sharing", Json.Int c.false_sh);
      ("invalidations", Json.Int c.invalidations);
      ("upgrades", Json.Int c.upgrades);
      ("misses", Json.Int (Mpcache.misses c)) ]

let action_json a = Json.String (Format.asprintf "%a" Plan.pp_action a)

let candidate_json c =
  Json.Obj
    [ ("target", Json.String c.target);
      ("label", Json.String (candidate_label c));
      ("adds", Json.List (List.map action_json c.adds));
      ("drops", Json.List (List.map action_json c.drops));
      ("est_fs", Json.Int c.est_fs);
      ("space_blocks", Json.Int c.space_blocks);
      ("load_est", Json.Int c.load_est);
      ("score", Json.float c.score) ]

let to_json t =
  Json.Obj
    [ ("nprocs", Json.Int t.nprocs);
      ("block", Json.Int t.block);
      ("stop", Json.String (stop_to_string t.stop));
      ("accepted", Json.Int (accepted t));
      ("initial", counts_json t.initial);
      ("final", counts_json t.final);
      ("fs_removed_fraction", Json.float (removed_fraction t));
      ("plan0", Json.List (List.map action_json t.plan0));
      ("plan", Json.List (List.map action_json t.plan));
      ("iterations",
       Json.List
         (List.map
            (fun it ->
              Json.Obj
                [ ("index", Json.Int it.index);
                  ("applied",
                   match it.applied with
                   | None -> Json.Null
                   | Some c -> candidate_json c);
                  ("candidates", Json.Int (List.length it.considered));
                  ("fs_before", Json.Int it.fs_before);
                  ("fs_after", Json.Int it.fs_after);
                  ("misses_before", Json.Int it.misses_before);
                  ("misses_after", Json.Int it.misses_after) ])
            t.iterations)) ]
