module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module Table = Fs_util.Table

type verdict = Falsely_shared | Truly_shared | Mixed | Private_line

let verdict_to_string = function
  | Falsely_shared -> "false sharing"
  | Truly_shared -> "true sharing"
  | Mixed -> "mixed"
  | Private_line -> "private"

type hot = {
  line : Mpcache.line;
  counts : Mpcache.counts;
  owner : string;
  cell_lo : int;
  cell_hi : int;
  score : float;
  verdict : verdict;
  fix : string;
}

type t = {
  nprocs : int;
  block : int;
  total : Mpcache.counts;
  hot : hot list;
  dropped : int;
}

(* The miss classifier is the authority: at every sharing miss it checked
   whether a remotely-modified word was actually consumed.  The whole-run
   word masks would misread dynamically partitioned data — a revolving
   partition writes every word from many processors across epochs while
   each individual miss is still false sharing.  The masks only break the
   tie for lines with no sharing misses at all. *)
let classify (l : Mpcache.line) (c : Mpcache.counts) =
  if l.Mpcache.writers < 2 then Private_line
  else
    let f = c.Mpcache.false_sh and t = c.true_sh in
    if f = 0 && t = 0 then
      if l.shared_words = 0 then Falsely_shared
      else if l.shared_words = l.written_words then Truly_shared
      else Mixed
    else if f >= 2 * t then Falsely_shared
    else if t >= 2 * f then Truly_shared
    else Mixed

(* What the planner decided for [var], if it decided anything.  Several
   summary keys (struct fields) can share one variable; the first
   non-Keep decision wins (the planner's own arbitration rule). *)
let planned_fix report var =
  Fs_transform.Transform.(decision_label (decision_for report var))

(* Fallback when the planner kept the layout: read the fix off the
   word-level footprint.  Dynamically partitioned data — distinct
   processors writing distinct words with no PDV axis the static
   analysis could group on — is the main customer. *)
let dynamic_fix verdict (l : Mpcache.line) =
  match verdict with
  | Falsely_shared ->
    if l.Mpcache.written_words > 1 then
      "align per-processor partitions to block boundaries"
    else "pad & align"
  | Mixed -> "split shared words from per-processor words, then pad"
  | Truly_shared -> "none — the communication is real"
  | Private_line -> "none — single writer"

let verdict_and_fix report var (l : Mpcache.line) (c : Mpcache.counts) =
  let verdict = classify l c in
  let fix =
    match verdict with
    | Truly_shared | Private_line -> dynamic_fix verdict l
    | Falsely_shared | Mixed -> (
      match planned_fix report var with
      | Some f -> f
      | None -> dynamic_fix verdict l)
  in
  (verdict, fix)

let analyze ?(cache_bytes = 32 * 1024) ?(assoc = 4) ?(top = 10) ?sched
    ?recorded prog plan ~nprocs ~block =
  let recorded =
    match recorded with Some r -> r | None -> Sim.record ?sched prog ~nprocs
  in
  let layout = Layout.realize prog plan ~block in
  let cache =
    Mpcache.create ~track_blocks:true ~track_lines:true
      ~max_addr:(Layout.size layout)
      { Mpcache.nprocs; block; cache_bytes; assoc }
  in
  ignore (Fs_replay.Replay.simulate recorded.Sim.trace ~layout ~cache
          : Fs_replay.Replay.run);
  let owner = Attribution.block_owner prog layout ~block in
  let cell_range = Attribution.cell_range prog layout ~block in
  let per_block = Mpcache.per_block cache in
  let report = Fs_transform.Transform.plan prog ~nprocs in
  let ranked =
    Mpcache.lines cache
    |> List.map (fun (l : Mpcache.line) ->
           let counts =
             match List.assoc_opt l.line_block per_block with
             | Some c -> c
             | None -> Mpcache.zero_counts ()
           in
           (l, counts))
    |> List.sort (fun ((a : Mpcache.line), (ca : Mpcache.counts))
                      ((b : Mpcache.line), (cb : Mpcache.counts)) ->
           compare
             (cb.false_sh, cb.invalidations, b.migrations, a.line_block)
             (ca.false_sh, ca.invalidations, a.migrations, b.line_block))
  in
  let nlines = List.length ranked in
  let hot =
    ranked
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun ((l : Mpcache.line), counts) ->
           let var = owner l.line_block in
           let cell_lo, cell_hi = cell_range var l.line_block in
           let verdict, fix = verdict_and_fix report var l counts in
           { line = l; counts; owner = var; cell_lo; cell_hi;
             score = Mpcache.pingpong_score l; verdict; fix })
  in
  { nprocs; block;
    total = Mpcache.copy_counts (Mpcache.counts cache);
    hot;
    dropped = max 0 (nlines - top) }

(* ------------------------------------------------------------------ *)

let cells_to_string h =
  if h.cell_lo < 0 then "-"
  else if h.cell_lo = h.cell_hi then string_of_int h.cell_lo
  else Printf.sprintf "%d..%d" h.cell_lo h.cell_hi

let line_label h = Printf.sprintf "0x%x %s" h.line.Mpcache.line_block h.owner

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "hot cache lines (%d processors, %dB blocks): %d false-sharing / %d \
        true-sharing misses whole-run\n\n"
       t.nprocs t.block t.total.Mpcache.false_sh t.total.Mpcache.true_sh);
  if t.hot = [] then Buffer.add_string buf "no lines tracked\n"
  else begin
    let header =
      [ "line"; "owner"; "cells"; "false sh."; "inval"; "writers";
        "migrations"; "ping-pong"; "max run"; "words shr/wr"; "verdict";
        "suggested fix" ]
    in
    let body =
      List.map
        (fun h ->
          [ Printf.sprintf "0x%x" h.line.Mpcache.line_block;
            h.owner;
            cells_to_string h;
            string_of_int h.counts.Mpcache.false_sh;
            string_of_int h.counts.Mpcache.invalidations;
            string_of_int h.line.Mpcache.writers;
            string_of_int h.line.Mpcache.migrations;
            Printf.sprintf "%.3f" h.score;
            string_of_int h.line.Mpcache.max_run;
            Printf.sprintf "%d/%d" h.line.Mpcache.shared_words
              h.line.Mpcache.written_words;
            verdict_to_string h.verdict;
            h.fix ])
        t.hot
    in
    Buffer.add_string buf (Table.render ~header body);
    if t.dropped > 0 then
      Buffer.add_string buf
        (Printf.sprintf "(%d cooler line(s) beyond the top %d not shown)\n"
           t.dropped (List.length t.hot));
    Buffer.add_string buf "\nownership migrations per line:\n";
    Buffer.add_string buf
      (Fs_obs.Heatmap.bars
         (List.map (fun h -> (line_label h, h.line.Mpcache.migrations)) t.hot))
  end;
  Buffer.contents buf
