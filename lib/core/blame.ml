module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module Table = Fs_util.Table

type pair = { src : int; victim : int; upgrades : int; write_misses : int }

type var_row = {
  var : string;
  invalidations : int;
  by_upgrade : int;
  by_write_miss : int;
  matrix : int array array;
  pairs : pair list;
}

type hot_block = {
  block : int;
  var : string;
  cell_lo : int;
  cell_hi : int;
  counts : Mpcache.counts;
}

type t = {
  nprocs : int;
  block : int;
  rows : var_row list;
  hot : hot_block list;
}

let analyze ?(top = 10) ~recorded prog plan ~nprocs ~block =
  let layout = Layout.realize prog plan ~block in
  let cache, _ =
    Sim.replay ~track_blocks:true ~track_pairs:true recorded layout ~nprocs
  in
  let owner = Attribution.block_owner prog layout ~block in
  (* fold the per-block pair flows onto the owning variables: per variable,
     a (src, victim) -> (upgrades, write misses) accumulator *)
  let per_var : (string, (int * int, int ref * int ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (p : Mpcache.pair) ->
      let var = owner p.block in
      let flows =
        match Hashtbl.find_opt per_var var with
        | Some f -> f
        | None ->
          let f = Hashtbl.create 16 in
          Hashtbl.add per_var var f;
          f
      in
      let u, m =
        match Hashtbl.find_opt flows (p.src, p.victim) with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0) in
          Hashtbl.add flows (p.src, p.victim) cell;
          cell
      in
      u := !u + p.upgrades;
      m := !m + p.write_misses)
    (Mpcache.invalidation_pairs cache);
  let rows =
    Hashtbl.fold
      (fun var flows acc ->
        let matrix = Array.make_matrix nprocs nprocs 0 in
        let pairs =
          Hashtbl.fold
            (fun (src, victim) (u, m) acc ->
              matrix.(src).(victim) <- !u + !m;
              { src; victim; upgrades = !u; write_misses = !m } :: acc)
            flows []
          |> List.sort (fun a b ->
                 compare
                   (b.upgrades + b.write_misses, a.src, a.victim)
                   (a.upgrades + a.write_misses, b.src, b.victim))
        in
        let sum f = List.fold_left (fun acc p -> acc + f p) 0 pairs in
        { var;
          invalidations = sum (fun p -> p.upgrades + p.write_misses);
          by_upgrade = sum (fun p -> p.upgrades);
          by_write_miss = sum (fun p -> p.write_misses);
          matrix;
          pairs }
        :: acc)
      per_var []
    |> List.sort (fun a b -> compare b.invalidations a.invalidations)
  in
  (* hottest blocks, with the owning variable's cell range *)
  let cell_range = Attribution.cell_range prog layout ~block in
  let hot =
    Mpcache.per_block cache
    |> List.sort (fun (_, a) (_, b) ->
           compare
             (b.Mpcache.invalidations, b.Mpcache.false_sh)
             (a.Mpcache.invalidations, a.Mpcache.false_sh))
    |> List.filteri (fun i _ -> i < top)
    |> List.filter (fun (_, (c : Mpcache.counts)) -> c.invalidations > 0)
    |> List.map (fun (blk, counts) ->
           let var = owner blk in
           let cell_lo, cell_hi = cell_range var blk in
           { block = blk; var; cell_lo; cell_hi; counts })
  in
  { nprocs; block; rows; hot }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let active_procs row =
  let seen = Array.make (Array.length row.matrix) false in
  Array.iteri
    (fun src vrow ->
      Array.iteri
        (fun victim n ->
          if n > 0 then begin
            seen.(src) <- true;
            seen.(victim) <- true
          end)
        vrow)
    row.matrix;
  let acc = ref [] in
  Array.iteri (fun p s -> if s then acc := p :: !acc) seen;
  List.rev !acc

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "invalidation blame matrix (%d processors, %dB blocks)\n\n"
       t.nprocs t.block);
  if t.rows = [] then Buffer.add_string buf "no invalidations recorded\n"
  else
    List.iter
      (fun (row : var_row) ->
        Buffer.add_string buf
          (Printf.sprintf "%s — %d invalidations (%d by upgrade, %d by write miss)\n"
             row.var row.invalidations row.by_upgrade row.by_write_miss);
        let procs = active_procs row in
        let header =
          "writer\\victim" :: List.map (fun p -> Printf.sprintf "P%d" p) procs
        in
        let body =
          List.filter_map
            (fun src ->
              if Array.exists (fun n -> n > 0) row.matrix.(src) then
                Some
                  (Printf.sprintf "P%d" src
                   :: List.map
                        (fun victim ->
                          let n = row.matrix.(src).(victim) in
                          if n = 0 then "." else string_of_int n)
                        procs)
              else None)
            procs
        in
        Buffer.add_string buf (Table.render ~header body);
        Buffer.add_char buf '\n')
      t.rows;
  if t.hot <> [] then begin
    Buffer.add_string buf "hottest blocks\n";
    let header =
      [ "block"; "owner"; "cells"; "invalidations"; "false sh."; "true sh." ]
    in
    let body =
      List.map
        (fun (h : hot_block) ->
          [ Printf.sprintf "0x%x" h.block;
            h.var;
            (if h.cell_lo < 0 then "-"
             else if h.cell_lo = h.cell_hi then string_of_int h.cell_lo
             else Printf.sprintf "%d..%d" h.cell_lo h.cell_hi);
            string_of_int h.counts.Mpcache.invalidations;
            string_of_int h.counts.Mpcache.false_sh;
            string_of_int h.counts.Mpcache.true_sh ])
        t.hot
    in
    Buffer.add_string buf (Table.render ~header body)
  end;
  Buffer.contents buf
