(* Reference outputs for every op the benchmark runs.  [generate]
   computes them once through the reference listener path
   ([Replay.replay_to_sink] into a block-tracking cache) and the result
   is committed as perfbench/expected.json; a run checks each op's
   output against it. *)

module Sim = Falseshare.Sim
module E = Falseshare.Experiments
module Layout = Fs_layout.Layout
module C = Fs_cache.Mpcache
module Ct = Fs_trace.Cell_trace
module Replay = Fs_replay.Replay
module Ksr = Fs_machine.Ksr
module Repair = Fs_feedback.Repair
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Json = Fs_obs.Json

(* an op's checked output: labelled vectors of counts *)
type checks = (string * int list) list

type entry = { events : int; checks : checks }

let of_counts (c : C.counts) =
  [ c.C.reads; c.writes; c.cold; c.repl; c.true_sh; c.false_sh;
    c.invalidations; c.upgrades ]

(* the same vector, read from the daemon's JSON *)
let count_fields =
  [ "reads"; "writes"; "cold"; "replacement"; "true_sharing";
    "false_sharing"; "invalidations"; "upgrades" ]

let of_json_counts j =
  List.map
    (fun f ->
      match Option.bind (Json.member f j) Json.get_int with
      | Some n -> n
      | None -> failwith ("counts without " ^ f))
    count_fields

let reference_counts (recorded : Sim.recorded) prog plan ~nprocs ~block =
  let layout = Layout.realize prog plan ~block in
  let cache =
    C.create ~track_blocks:true ~max_addr:(Layout.size layout)
      (C.default_config ~nprocs ~block)
  in
  Replay.replay_to_sink recorded.Sim.trace ~layout ~sink:(C.sink cache);
  C.counts cache

let plan_of (p : Spec.prog) prog = function
  | Spec.N -> []
  | Spec.C -> Sim.compiler_plan prog ~nprocs:p.Spec.nprocs

(* ------------------------------------------------------------------ *)
(* Generation                                                           *)

let events_of (r : Sim.recorded) = Ct.length r.Sim.trace

let analyze_entries () =
  List.concat_map
    (fun (p : Spec.prog) ->
      let prog = Spec.build p in
      let plan = Sim.compiler_plan prog ~nprocs:p.nprocs in
      let one sched =
        let recorded =
          Sim.record ?sched:(Option.map Fs_sched.Sched.seeded sched) prog
            ~nprocs:p.nprocs
        in
        let c =
          reference_counts recorded prog plan ~nprocs:p.nprocs
            ~block:Spec.analyze_block
        in
        ( Spec.analyze_key p ~sched,
          { events = events_of recorded; checks = [ ("run", of_counts c) ] } )
      in
      if Spec.dynamic p then
        List.map (fun s -> one (Some s)) (Array.to_list Spec.sched_seeds)
      else [ one None ])
    Spec.analyze_progs

let replay_entries () =
  List.concat_map
    (fun (p : Spec.prog) ->
      let prog = Spec.build p in
      let recorded = Sim.record prog ~nprocs:p.nprocs in
      let events = events_of recorded in
      List.concat_map
        (fun v ->
          let plan = plan_of p prog v in
          let sweeps =
            List.map
              (fun block ->
                let c =
                  reference_counts recorded prog plan ~nprocs:p.nprocs ~block
                in
                ( Spec.replay_key p v ~block,
                  { events; checks = [ ("run", of_counts c) ] } ))
              Spec.sweep_blocks
          in
          let m = Sim.machine_sim ~recorded prog plan ~nprocs:p.nprocs in
          let r = m.Sim.machine in
          sweeps
          @ [ ( Spec.machine_key p v,
                { events;
                  checks =
                    [ ("cycles", [ r.Ksr.cycles ]);
                      ("cache", of_counts r.Ksr.cache) ] } ) ])
        Spec.versions)
    Spec.replay_progs

(* the stream traces the sweep does not already cover, at the stream's
   block *)
let stream_entries () =
  List.concat_map
    (fun (p : Spec.prog) ->
      let prog = Spec.build p in
      let recorded = Sim.record prog ~nprocs:p.nprocs in
      List.map
        (fun v ->
          let c =
            reference_counts recorded prog (plan_of p prog v) ~nprocs:p.nprocs
              ~block:Spec.stream_block
          in
          ( Spec.replay_key p v ~block:Spec.stream_block,
            { events = events_of recorded; checks = [ ("run", of_counts c) ] } ))
        Spec.versions)
    (List.filter (fun p -> not (List.mem p Spec.replay_progs)) Spec.stream_progs)

(* the serve payloads, computed the way the daemon's handlers compute
   them but through the reference replay path *)
let serve_entries ~sources_dir =
  let registered =
    List.map
      (fun (endpoint, (p : Spec.prog)) ->
        let w = Ws.find p.wname in
        let nprocs = p.nprocs and block = Spec.analyze_block in
        let prog = Spec.build p in
        let recorded = Sim.record prog ~nprocs in
        let events = events_of recorded in
        let plan v = E.plan_for w v prog ~nprocs ~scale:p.scale in
        let counts plan =
          of_counts (reference_counts recorded prog plan ~nprocs ~block)
        in
        let analyze =
          let versions =
            if List.mem W.N w.W.versions then w.W.versions
            else W.N :: w.W.versions
          in
          List.map
            (fun v ->
              let name =
                match v with
                | W.N -> "unoptimized"
                | W.C -> "compiler"
                | W.P -> "programmer"
              in
              (name, counts (plan v)))
            versions
        in
        let compiler = plan W.C in
        let refine top =
          let options = { Repair.default_options with top } in
          Repair.refine ~options ~recorded prog compiler ~nprocs ~block
        in
        let checks =
          match endpoint with
          | "analyze" -> analyze
          | "hotlines" -> [ ("total", counts compiler) ]
          | "repair" ->
            (* runs vary [top] to make fresh keys; the checked output
               must not depend on it *)
            let r = refine 64 and r' = refine 10_000 in
            if of_counts r.Repair.final <> of_counts r'.Repair.final then
              failwith ("repair output depends on top: " ^ p.wname);
            [ ("initial", of_counts r.Repair.initial);
              ("final", of_counts r.Repair.final) ]
          | ep -> failwith ("no serve endpoint " ^ ep)
        in
        (Spec.serve_key endpoint p, { events; checks }))
      Spec.serve_registered
  in
  let sources =
    List.map
      (fun file ->
        let src =
          In_channel.with_open_bin (Filename.concat sources_dir file)
            In_channel.input_all
        in
        let nprocs = Spec.source_nprocs in
        let prog =
          match Fs_parc.Parser.parse_and_validate src with
          | Ok prog -> Fs_sched.Sched.instrument ~nprocs prog
          | Error errs -> failwith (file ^ ": " ^ String.concat "; " errs)
        in
        let recorded = Sim.record prog ~nprocs in
        let counts plan =
          of_counts
            (reference_counts recorded prog plan ~nprocs
               ~block:Spec.analyze_block)
        in
        ( Spec.source_key file,
          { events = events_of recorded;
            checks =
              [ ("unoptimized", counts []);
                ("compiler", counts (Sim.compiler_plan prog ~nprocs)) ] } ))
      Spec.serve_sources
  in
  registered @ sources

let to_json entries =
  Json.Obj
    (List.map
       (fun (key, e) ->
         ( key,
           Json.Obj
             [ ("events", Json.Int e.events);
               ( "checks",
                 Json.Obj
                   (List.map
                      (fun (label, v) ->
                        (label, Json.List (List.map (fun n -> Json.Int n) v)))
                      e.checks) ) ] ))
       entries)

let generate ~sources_dir =
  to_json
    (analyze_entries () @ replay_entries () @ stream_entries ()
    @ serve_entries ~sources_dir)

(* ------------------------------------------------------------------ *)
(* Loading                                                              *)

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error m -> failwith (path ^ ": " ^ m)
  in
  let tbl = Hashtbl.create 64 in
  (match j with
   | Json.Obj entries ->
     List.iter
       (fun (key, e) ->
         let events =
           Option.value ~default:0
             (Option.bind (Json.member "events" e) Json.get_int)
         in
         let checks =
           match Json.member "checks" e with
           | Some (Json.Obj l) ->
             List.map
               (fun (label, v) ->
                 ( label,
                   List.filter_map Json.get_int
                     (Option.value ~default:[] (Json.get_list v)) ))
               l
           | _ -> []
         in
         Hashtbl.replace tbl key { events; checks })
       entries
   | _ -> failwith (path ^ ": not an object"));
  tbl

let find tbl key =
  match Hashtbl.find_opt tbl key with
  | Some e -> e
  | None -> failwith ("no reference output for " ^ key)
