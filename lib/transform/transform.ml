module Ast = Fs_ir.Ast
module Cells = Fs_ir.Cells
module Sym = Fs_rsd.Sym
module Rsd = Fs_rsd.Rsd
module Summary = Fs_analysis.Summary
module Plan = Fs_layout.Plan

type options = {
  hot_threshold : float;
  write_read_ratio : float;
  rsd_limit : int;
  profile : bool;
  pad_locks : bool;
}

let default_options =
  {
    hot_threshold = 0.01;
    write_read_ratio = 10.0;
    rsd_limit = Rsd.Set.default_limit;
    profile = true;
    pad_locks = true;
  }

type decision =
  | Keep
  | Group of { axis : int }
  | Regroup of { ways : int; chunked : bool }
  | Indirection of { field : string }
  | Pad of { element : bool }

type entry = {
  key : Summary.key;
  read_weight : float;
  write_weight : float;
  dominant_phase : int;
  per_process_writes : bool;
  decision : decision;
  reason : string;
}

type report = {
  entries : entry list;
  plan : Plan.t;
  summary : Summary.t;
}

(* The scalar type a key's accesses reach (descending arrays implicitly and
   structs by the field signature). *)
let rec terminal_scalar prog (ty : Ast.ty) fieldsig =
  match (ty, fieldsig) with
  | Ast.Scalar s, [] -> Some s
  | Ast.Scalar _, _ :: _ -> None
  | Ast.Array (elt, _), fs -> terminal_scalar prog elt fs
  | Ast.Struct sname, f :: fs -> (
    match List.assoc_opt f (Ast.find_struct prog sname).fields with
    | Some fty -> terminal_scalar prog fty fs
    | None -> None)
  | Ast.Struct _, [] -> None

(* Sections a process touches in a phase, projected on one dimension. *)
let projections access dim =
  List.filter_map
    (fun (r : Rsd.t) ->
      if dim < Array.length r.dims then Some r.dims.(dim) else None)
    access

let pairwise_disjoint nprocs per_pid =
  let rec go p =
    if p >= nprocs then true
    else
      let rec inner q =
        if q >= nprocs then true
        else if
          List.exists
            (fun a -> List.exists (fun b -> Sym.overlaps a b) (per_pid q))
            (per_pid p)
        then false
        else inner (q + 1)
      in
      inner (p + 1) && go (p + 1)
  in
  go 0

(* Writes are per-process when no two processes' write sections can
   intersect (full regular sections, all dimensions). *)
let writes_per_process summary ~phase key =
  let nprocs = Summary.nprocs summary in
  let sets =
    Array.init nprocs (fun pid ->
        match Summary.get summary ~phase ~pid key with
        | Some a -> Rsd.Set.to_list a.writes
        | None -> [])
  in
  let rec go p =
    if p >= nprocs then true
    else
      let rec inner q =
        if q >= nprocs then true
        else if
          List.exists
            (fun a -> List.exists (fun b -> Rsd.overlaps a b) sets.(q))
            sets.(p)
        then false
        else inner (q + 1)
      in
      inner (p + 1) && go (p + 1)
  in
  go 0

(* Split the read weight of a key into a per-process part (sections no
   other process reads in the same phase) and a shared part, keeping the
   shared descriptors for the spatial-locality judgement.  All phases
   contribute: a transformation changes the layout everywhere, so reads in
   any phase pay for lost locality. *)
let read_classes summary key =
  let nprocs = Summary.nprocs summary in
  let private_w = ref 0.0 and shared_w = ref 0.0 in
  let shared_rsds = ref [] in
  for phase = 0 to Summary.phases summary - 1 do
    let sets =
      Array.init nprocs (fun pid ->
          match Summary.get summary ~phase ~pid key with
          | Some a -> Rsd.Set.to_list a.reads
          | None -> [])
    in
    Array.iteri
      (fun pid mine ->
        List.iter
          (fun (r : Rsd.t) ->
            let shared =
              let found = ref false in
              Array.iteri
                (fun q s ->
                  if q <> pid && List.exists (Rsd.overlaps r) s then found := true)
                sets;
              !found
            in
            if shared then begin
              shared_w := !shared_w +. r.weight;
              shared_rsds := r :: !shared_rsds
            end
            else private_w := !private_w +. r.weight)
          mine)
      sets
  done;
  (!private_w, !shared_w, !shared_rsds)

(* Spatial locality: every section is a point or a dense (stride <= 2)
   range in every dimension.  Scalars (rank 0) have no spatial locality to
   preserve. *)
let has_locality rsds =
  List.exists (fun (r : Rsd.t) -> Array.length r.dims > 0) rsds
  && List.for_all
       (fun (r : Rsd.t) ->
         Array.for_all
           (function
             | Sym.Const _ -> true
             | Sym.Interval { stride; _ } -> stride <= 2
             | Sym.Strided s -> s <= 2
             | Sym.Congruent { m; _ } -> m <= 2
             | Sym.Unknown -> false)
           r.dims)
       rsds

let all_rsds summary ~phase key ~write =
  let acc = ref [] in
  for pid = 0 to Summary.nprocs summary - 1 do
    match Summary.get summary ~phase ~pid key with
    | Some a ->
      acc := (if write then Rsd.Set.to_list a.writes else Rsd.Set.to_list a.reads) @ !acc
    | None -> ()
  done;
  !acc

(* Which array axis separates the processes: distinct per-process
   coordinates with no overlap.  Among the working axes, the one with the
   smallest extent is the PDV axis (the others separate by accident of the
   iteration space). *)
let find_pdv_axis summary ~phase key ~dims =
  let nprocs = Summary.nprocs summary in
  let per_pid_writes pid =
    match Summary.get summary ~phase ~pid key with
    | Some a -> Rsd.Set.to_list a.writes
    | None -> []
  in
  let axis_works a =
    pairwise_disjoint nprocs (fun pid -> projections (per_pid_writes pid) a)
  in
  (* The PDV axis must also be compact: each process touches a narrow band
     of coordinates.  A process whose section spans the whole axis (e.g.
     the strided [t*P+pid] footprint on a flattened array) is regrouping
     territory, not transposition. *)
  let compact a extent =
    let band = max 1 (extent / nprocs) in
    List.for_all
      (fun pid ->
        List.for_all
          (fun proj ->
            match Sym.bounds proj with
            | Some (lo, hi) -> hi - lo < max band 2
            | None -> false)
          (projections (per_pid_writes pid) a))
      (List.init nprocs Fun.id)
  in
  let candidates =
    List.mapi (fun a extent -> (a, extent)) dims
    |> List.filter (fun (a, extent) -> axis_works a && compact a extent)
  in
  match List.sort (fun (_, e1) (_, e2) -> compare e1 e2) candidates with
  | (axis, extent) :: _ -> Some (axis, extent)
  | [] -> None

(* Flat per-process structure in the outermost dimension's index
   arithmetic: either interleaved ([k*P+pid]: equal strides, distinct
   offset classes) or chunked ([pid*chunk+k]: disjoint dense ranges).
   The regroup splits that dimension, of [extent] elements, [ways] ways,
   so a variable it does not fit is left as it is. *)
let find_regroup summary ~phase key ~nprocs ~extent =
  let per_pid_proj pid =
    match Summary.get summary ~phase ~pid key with
    | Some a -> projections (Rsd.Set.to_list a.writes) 0
    | None -> []
  in
  let projs = Array.init nprocs per_pid_proj in
  let strides =
    Array.to_list projs |> List.concat
    |> List.map (function
         | Sym.Interval { stride; _ } -> Some stride
         | Sym.Congruent { m; _ } -> Some m
         | Sym.Const _ -> Some 1
         | _ -> None)
  in
  if List.exists (fun s -> s = None) strides || strides = [] then None
  else
    let strides = List.filter_map Fun.id strides in
    let s0 = List.hd strides in
    if List.for_all (fun s -> s = s0) strides then
      let ways, chunked = if s0 >= 2 then (s0, false) else (nprocs, true) in
      if ways >= 2 && ways <= extent then Some (Regroup { ways; chunked })
      else None
    else None

(* Weight of a key inside one phase, across processes. *)
let key_phase_weight summary ~phase key =
  let acc = ref 0.0 in
  for pid = 0 to Summary.nprocs summary - 1 do
    match Summary.get summary ~phase ~pid key with
    | Some a ->
      acc := !acc +. Rsd.Set.total_weight a.reads +. Rsd.Set.total_weight a.writes
    | None -> ()
  done;
  !acc

(* The phase whose sharing pattern the data is restructured for: the
   heaviest phase among those that write the datum.  (A phase that only
   reads it cannot reveal the write pattern, and writes are what create
   invalidations.)  Falls back to the heaviest phase overall when no phase
   writes. *)
let dominant_phase summary key =
  let key_write_weight phase =
    let acc = ref 0.0 in
    for pid = 0 to Summary.nprocs summary - 1 do
      match Summary.get summary ~phase ~pid key with
      | Some a -> acc := !acc +. Fs_rsd.Rsd.Set.total_weight a.writes
      | None -> ()
    done;
    !acc
  in
  let best = ref (-1) and best_w = ref 0.0 in
  for phase = 0 to Summary.phases summary - 1 do
    if key_write_weight phase > 0.0 then begin
      let w = key_phase_weight summary ~phase key in
      if !best < 0 || w > !best_w then begin
        best := phase;
        best_w := w
      end
    end
  done;
  if !best >= 0 then !best
  else begin
    let best = ref 0 and best_w = ref (-1.0) in
    for phase = 0 to Summary.phases summary - 1 do
      let w = key_phase_weight summary ~phase key in
      if w > !best_w then begin
        best := phase;
        best_w := w
      end
    done;
    !best
  end

let classify prog options summary total_write_weight (key : Summary.key) : entry =
  let read_weight = Summary.read_weight summary key in
  let write_weight = Summary.write_weight summary key in
  let phase = dominant_phase summary key in
  let gty = Ast.find_global prog key.var in
  let keep reason ~ppw =
    { key; read_weight; write_weight; dominant_phase = phase;
      per_process_writes = ppw; decision = Keep; reason }
  in
  match terminal_scalar prog gty key.fieldsig with
  | Some Ast.Tlock -> keep "lock datum (handled by lock padding)" ~ppw:false
  | None -> keep "unresolvable field signature" ~ppw:false
  | Some (Ast.Tint | Ast.Tfloat) ->
    let share = write_weight /. total_write_weight in
    if write_weight = 0.0 then keep "read-only" ~ppw:false
    else if share < options.hot_threshold then
      keep
        (Printf.sprintf "below hotness threshold (%.2f%% of write weight)"
           (100.0 *. share))
        ~ppw:false
    else begin
      let nwriters =
        let c = ref 0 in
        for pid = 0 to Summary.nprocs summary - 1 do
          match Summary.get summary ~phase ~pid key with
          | Some a when not (Rsd.Set.is_empty a.writes) -> incr c
          | _ -> ()
        done;
        !c
      in
      let ppw = nwriters >= 2 && writes_per_process summary ~phase key in
      let private_r, shared_r, shared_rsds = read_classes summary key in
      let read_locality = has_locality shared_rsds in
      if ppw then begin
        (* group & transpose or indirection, if the reads allow it: the
           dominant read pattern must be per-process, or the shared reads
           must lack locality, or the writes must dominate them by an
           order of magnitude (Section 3.3) *)
        let reads_ok =
          shared_r = 0.0 || shared_r <= private_r || (not read_locality)
          || write_weight >= options.write_read_ratio *. shared_r
        in
        if not reads_ok then
          keep "reads are shared with locality and not write-dominated" ~ppw
        else
          match (key.fieldsig, Cells.array_dims prog gty) with
          | [], Some (dims, Ast.Scalar _) -> (
            let nprocs = Summary.nprocs summary in
            match find_pdv_axis summary ~phase key ~dims with
            | Some (axis, extent) when extent <= 2 * nprocs ->
              (* the axis really is the processor dimension *)
              { key; read_weight; write_weight; dominant_phase = phase;
                per_process_writes = ppw; decision = Group { axis };
                reason = "per-process writes; plain array with a PDV axis" }
            | Some _ | None -> (
              (* the per-process structure may live in the outer index
                 arithmetic of a flat array *)
              match find_regroup summary ~phase key ~nprocs ~extent:(List.hd dims) with
              | Some d ->
                { key; read_weight; write_weight; dominant_phase = phase;
                  per_process_writes = ppw; decision = d;
                  reason = "per-process writes in flat index arithmetic" }
              | None ->
                keep "per-process writes but no single separating axis" ~ppw))
          | [ field ], _ -> (
            match gty with
            | Ast.Array (Ast.Struct sname, extent) -> (
              let sdef = Ast.find_struct prog sname in
              match List.assoc_opt field sdef.fields with
              | Some (Ast.Array _) ->
                { key; read_weight; write_weight; dominant_phase = phase;
                  per_process_writes = ppw;
                  decision = Indirection { field };
                  reason = "per-process field embedded in a record array" }
              | Some _ -> (
                (* a scalar field, per-process because the *records* are
                   owned per-process: regroup the record array itself *)
                let nprocs = Summary.nprocs summary in
                match find_regroup summary ~phase key ~nprocs ~extent with
                | Some d ->
                  { key; read_weight; write_weight; dominant_phase = phase;
                    per_process_writes = ppw; decision = d;
                    reason = "per-process record ownership in a record array" }
                | None -> keep "per-process record field is not an array" ~ppw)
              | None -> keep "unknown field" ~ppw)
            | _ -> keep "per-process writes in an untransformable shape" ~ppw)
          | _ -> keep "per-process writes in an untransformable shape" ~ppw
      end
      else begin
        (* write-shared: pad & align only without processor/spatial locality *)
        let writes = all_rsds summary ~phase key ~write:true in
        let write_locality = has_locality writes in
        if nwriters < 2 then keep "single writing process" ~ppw:false
        else if (not write_locality) && not read_locality then
          let element = match gty with Ast.Array _ -> true | _ -> false in
          { key; read_weight; write_weight; dominant_phase = phase;
            per_process_writes = false; decision = Pad { element };
            reason = "write-shared without processor or spatial locality" }
        else keep "write-shared but accesses have spatial locality" ~ppw:false
      end
    end

let has_lock_cells prog =
  List.exists
    (fun (_, ty) ->
      let found = ref false in
      Cells.iter_scalars prog ty (fun _ s -> if s = Ast.Tlock then found := true);
      !found)
    prog.Ast.globals

(* Per-variable arbitration: several keys (fields) of one variable may ask
   for different transformations; the heaviest writer wins. *)
let arbitrate entries =
  let by_var = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.decision with
      | Keep -> ()
      | _ -> (
        let var = e.key.Summary.var in
        match Hashtbl.find_opt by_var var with
        | Some prev when prev.write_weight >= e.write_weight -> ()
        | _ -> Hashtbl.replace by_var var e))
    entries;
  by_var

let build_plan prog options entries summary =
  ignore summary;
  let by_var = arbitrate entries in
  let winners = Hashtbl.fold (fun _ e acc -> e :: acc) by_var [] in
  let winners =
    List.sort (fun a b -> compare a.key.Summary.var b.key.Summary.var) winners
  in
  (* group & transpose actions grouped by (phase, axis, extent) *)
  let groups = Hashtbl.create 8 in
  let actions = ref [] in
  List.iter
    (fun e ->
      let var = e.key.Summary.var in
      match e.decision with
      | Group { axis } ->
        let extent =
          match Cells.array_dims prog (Ast.find_global prog var) with
          | Some (dims, _) -> List.nth dims axis
          | None -> -1
        in
        let gkey = (e.dominant_phase, axis, extent) in
        let prev = Option.value (Hashtbl.find_opt groups gkey) ~default:[] in
        Hashtbl.replace groups gkey (var :: prev)
      | Regroup { ways; chunked } ->
        actions := Plan.Regroup { var; ways; chunked } :: !actions
      | Indirection _ ->
        (* gather every per-process field of this record array into one
           indirection (the per-process areas group them, Figure 2b) *)
        let fields =
          List.filter_map
            (fun e' ->
              match e'.decision with
              | Indirection { field } when e'.key.Summary.var = var -> Some field
              | _ -> None)
            entries
          |> List.sort_uniq compare
        in
        actions := Plan.Indirect { var; fields } :: !actions
      | Pad { element } -> actions := Plan.Pad_align { var; element } :: !actions
      | Keep -> ())
    winners;
  let group_actions =
    Hashtbl.fold
      (fun (_, axis, _) vars acc ->
        Plan.Group_transpose { vars = List.sort compare vars; pdv_axis = axis } :: acc)
      groups []
    |> List.sort compare
  in
  let lock_actions =
    if options.pad_locks && has_lock_cells prog then [ Plan.Pad_locks ] else []
  in
  group_actions @ List.rev !actions @ lock_actions

let plan ?(options = default_options) prog ~nprocs =
  let summary =
    Summary.analyze ~rsd_limit:options.rsd_limit ~profile:options.profile prog
      ~nprocs
  in
  let total_write_weight =
    List.fold_left
      (fun acc key -> acc +. Summary.write_weight summary key)
      0.0 (Summary.keys summary)
  in
  let total_write_weight = if total_write_weight <= 0.0 then 1.0 else total_write_weight in
  let entries =
    List.map (classify prog options summary total_write_weight) (Summary.keys summary)
  in
  let plan = build_plan prog options entries summary in
  Plan.validate prog plan;
  { entries; plan; summary }

let entries_for r var =
  List.filter (fun e -> e.key.Summary.var = var) r.entries

let decision_for r var =
  match
    List.find_opt (fun e -> e.decision <> Keep) (entries_for r var)
  with
  | Some e -> e.decision
  | None -> Keep

let decision_label = function
  | Keep -> None
  | Group { axis } -> Some (Printf.sprintf "group & transpose (axis %d)" axis)
  | Regroup { ways; chunked } ->
    Some
      (Printf.sprintf "regroup %d-way %s" ways
         (if chunked then "chunked" else "interleaved"))
  | Indirection { field } -> Some (Printf.sprintf "indirection on .%s" field)
  | Pad { element } ->
    Some (if element then "pad & align each element" else "pad & align")

let pp_decision fmt = function
  | Keep -> Format.pp_print_string fmt "keep"
  | Group { axis } -> Format.fprintf fmt "group&transpose(axis %d)" axis
  | Regroup { ways; chunked } ->
    Format.fprintf fmt "group&transpose(%d-way %s)" ways
      (if chunked then "chunked" else "strided")
  | Indirection { field } -> Format.fprintf fmt "indirection(%s)" field
  | Pad { element } ->
    Format.fprintf fmt "pad&align%s" (if element then "(per element)" else "")

let pp_report fmt r =
  Format.fprintf fmt "@[<v>plan: %a@," Plan.pp r.plan;
  List.iter
    (fun e ->
      Format.fprintf fmt "%-24s R%8.1f W%8.1f  ph%d  %-28s %s@,"
        (Summary.key_to_string e.key)
        e.read_weight e.write_weight e.dominant_phase
        (Format.asprintf "%a" pp_decision e.decision)
        e.reason)
    r.entries;
  Format.fprintf fmt "@]"
