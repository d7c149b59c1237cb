module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout

type row = { var : string; counts : Mpcache.counts; blocks : int }

let pointer_owner = "(indirection pointers)"
let unmapped_owner = "(unmapped)"

(* Dominant owner of each block, by cell count. *)
let block_owner prog layout ~block =
  let owner_cells : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  let bump blk var =
    let tbl =
      match Hashtbl.find_opt owner_cells blk with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.add owner_cells blk t;
        t
    in
    Hashtbl.replace tbl var
      (1 + Option.value (Hashtbl.find_opt tbl var) ~default:0)
  in
  List.iter
    (fun (name, _) ->
      let vl = Layout.lookup layout name in
      Array.iter (fun a -> bump (a / block) name) vl.Layout.addr;
      Array.iter (fun a -> if a >= 0 then bump (a / block) pointer_owner) vl.Layout.extra)
    prog.Fs_ir.Ast.globals;
  fun blk ->
    match Hashtbl.find_opt owner_cells blk with
    | None -> unmapped_owner
    | Some tbl ->
      fst
        (Hashtbl.fold
           (fun var n (bv, bn) -> if n > bn then (var, n) else (bv, bn))
           tbl (unmapped_owner, 0))

let cell_range prog layout ~block var blk =
  match List.assoc_opt var prog.Fs_ir.Ast.globals with
  | None -> (-1, -1)
  | Some _ ->
    let vl = Layout.lookup layout var in
    let lo = ref max_int and hi = ref (-1) in
    Array.iteri
      (fun cell a ->
        if a / block = blk then begin
          if cell < !lo then lo := cell;
          if cell > !hi then hi := cell
        end)
      vl.Layout.addr;
    if !hi < 0 then (-1, -1) else (!lo, !hi)

let attribute ~recorded prog plan ~nprocs ~block =
  let layout = Layout.realize prog plan ~block in
  let cache, _ = Sim.replay ~track_blocks:true recorded layout ~nprocs in
  let dominant = block_owner prog layout ~block in
  let per_var : (string, Mpcache.counts * int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (blk, c) ->
      let var = dominant blk in
      let dst, nblocks =
        match Hashtbl.find_opt per_var var with
        | Some x -> x
        | None ->
          let x = (Mpcache.zero_counts (), ref 0) in
          Hashtbl.add per_var var x;
          x
      in
      incr nblocks;
      Mpcache.add_into dst c)
    (Mpcache.per_block cache);
  Hashtbl.fold
    (fun var (counts, nblocks) acc ->
      { var; counts; blocks = !nblocks } :: acc)
    per_var []
  |> List.sort (fun a b ->
         compare b.counts.Mpcache.false_sh a.counts.Mpcache.false_sh)

let render rows =
  let header =
    [ "data structure"; "blocks"; "accesses"; "misses"; "false sh."; "true sh." ]
  in
  let body =
    List.map
      (fun r ->
        [ r.var;
          string_of_int r.blocks;
          string_of_int (Mpcache.accesses r.counts);
          string_of_int (Mpcache.misses r.counts);
          string_of_int r.counts.Mpcache.false_sh;
          string_of_int r.counts.Mpcache.true_sh ])
      rows
  in
  Fs_util.Table.render ~header body
