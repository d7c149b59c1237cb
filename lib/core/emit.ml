module Json = Fs_obs.Json
module Mpcache = Fs_cache.Mpcache
module Workload = Fs_workloads.Workload
module T = Fs_transform.Transform
module E = Experiments

let counts (c : Mpcache.counts) =
  Json.Obj
    [ ("reads", Json.Int c.Mpcache.reads);
      ("writes", Json.Int c.writes);
      ("accesses", Json.Int (Mpcache.accesses c));
      ("misses", Json.Int (Mpcache.misses c));
      ("cold", Json.Int c.cold);
      ("replacement", Json.Int c.repl);
      ("true_sharing", Json.Int c.true_sh);
      ("false_sharing", Json.Int c.false_sh);
      ("invalidations", Json.Int c.invalidations);
      ("upgrades", Json.Int c.upgrades);
      ("miss_rate", Json.float (Mpcache.miss_rate c));
      ("false_sharing_rate", Json.float (Mpcache.false_sharing_rate c)) ]

let fig3_cell (c : E.fig3_cell) =
  Json.Obj
    [ ("accesses", Json.Int c.accesses);
      ("misses", Json.Int c.misses);
      ("false_sharing", Json.Int c.false_sharing) ]

let fig3 rows =
  Json.List
    (List.map
       (fun (r : E.fig3_row) ->
         Json.Obj
           [ ("workload", Json.String r.name);
             ("procs", Json.Int r.procs);
             ("block", Json.Int r.block);
             ("unoptimized", fig3_cell r.unopt);
             ("compiler", fig3_cell r.compiler) ])
       rows)

let table2 rows =
  Json.List
    (List.map
       (fun (r : E.table2_row) ->
         Json.Obj
           [ ("workload", Json.String r.name);
             ("total_reduction", Json.float r.total_reduction);
             ("group_transpose", Json.float r.group_transpose);
             ("indirection", Json.float r.indirection);
             ("pad_align", Json.float r.pad_align);
             ("locks", Json.float r.locks) ])
       rows)

let series ss =
  Json.List
    (List.map
       (fun (s : E.series) ->
         Json.Obj
           [ ("workload", Json.String s.workload);
             ("version", Json.String (Workload.version_to_string s.version));
             ("points",
              Json.List
                (List.map
                   (fun (p, sp) ->
                     Json.Obj
                       [ ("procs", Json.Int p); ("speedup", Json.float sp) ])
                   s.points)) ])
       ss)

let table3 rows =
  Json.List
    (List.map
       (fun (r : E.table3_row) ->
         Json.Obj
           [ ("workload", Json.String r.name);
             ("results",
              Json.List
                (List.map
                   (fun (v, speedup, at) ->
                     Json.Obj
                       [ ("version", Json.String (Workload.version_to_string v));
                         ("best_speedup", Json.float speedup);
                         ("at_procs", Json.Int at) ])
                   r.results)) ])
       rows)

let stats (s : E.stats) =
  Json.Obj
    [ ("fs_share_of_misses_128", Json.float s.fs_share_of_misses_128);
      ("fs_removed_128", Json.float s.fs_removed_128);
      ("other_miss_increase_128", Json.float s.other_miss_increase_128);
      ("total_miss_reduction_64", Json.float s.total_miss_reduction_64) ]

let exec rows =
  Json.List
    (List.map
       (fun (r : E.exec_row) ->
         Json.Obj
           [ ("workload", Json.String r.name);
             ("improvement", Json.float r.improvement);
             ("at_procs", Json.Int r.at_procs) ])
       rows)

let sim ~workload ~nprocs ~block versions =
  Json.Obj
    [ ("workload", Json.String workload);
      ("procs", Json.Int nprocs);
      ("block", Json.Int block);
      ("versions",
       Json.List
         (List.map
            (fun (name, (r : Sim.cache_run)) ->
              Json.Obj
                [ ("version", Json.String name);
                  ("counts", counts r.Sim.counts);
                  ("layout_bytes", Json.Int r.layout_bytes);
                  ("barrier_episodes",
                   Json.Int r.interp.Fs_interp.Interp.barrier_episodes) ])
            versions)) ]

let attribution rows =
  Json.List
    (List.map
       (fun (r : Attribution.row) ->
         Json.Obj
           [ ("var", Json.String r.Attribution.var);
             ("blocks", Json.Int r.blocks);
             ("counts", counts r.counts) ])
       rows)

let blame (b : Blame.t) =
  Json.Obj
    [ ("procs", Json.Int b.Blame.nprocs);
      ("block", Json.Int b.block);
      ("vars",
       Json.List
         (List.map
            (fun (row : Blame.var_row) ->
              Json.Obj
                [ ("var", Json.String row.var);
                  ("invalidations", Json.Int row.invalidations);
                  ("by_upgrade", Json.Int row.by_upgrade);
                  ("by_write_miss", Json.Int row.by_write_miss);
                  ("pairs",
                   Json.List
                     (List.map
                        (fun (p : Blame.pair) ->
                          Json.Obj
                            [ ("src", Json.Int p.src);
                              ("victim", Json.Int p.victim);
                              ("upgrades", Json.Int p.upgrades);
                              ("write_misses", Json.Int p.write_misses) ])
                        row.pairs)) ])
            b.rows));
      ("hot_blocks",
       Json.List
         (List.map
            (fun (h : Blame.hot_block) ->
              Json.Obj
                [ ("block", Json.Int h.block);
                  ("owner", Json.String h.var);
                  ("cell_lo", Json.Int h.cell_lo);
                  ("cell_hi", Json.Int h.cell_hi);
                  ("counts", counts h.counts) ])
            b.hot)) ]

let workloads ws =
  Json.List
    (List.map
       (fun (w : Workload.t) ->
         Json.Obj
           [ ("name", Json.String w.name);
             ("description", Json.String w.description);
             ("lines_of_c", Json.Int w.lines_of_c);
             ("versions",
              Json.List
                (List.map
                   (fun v -> Json.String (Workload.version_to_string v))
                   w.versions));
             ("scheduling",
              Json.String (if w.dynamic then "dynamic" else "static"));
             ("fig3_procs", Json.Int w.fig3_procs);
             ("default_scale", Json.Int w.default_scale) ])
       ws)

let decision = function
  | T.Keep -> Json.Obj [ ("kind", Json.String "keep") ]
  | T.Group { axis } ->
    Json.Obj [ ("kind", Json.String "group_transpose"); ("axis", Json.Int axis) ]
  | T.Regroup { ways; chunked } ->
    Json.Obj
      [ ("kind", Json.String "regroup");
        ("ways", Json.Int ways);
        ("chunked", Json.Bool chunked) ]
  | T.Indirection { field } ->
    Json.Obj [ ("kind", Json.String "indirection"); ("field", Json.String field) ]
  | T.Pad { element } ->
    Json.Obj [ ("kind", Json.String "pad_align"); ("element", Json.Bool element) ]

let transform_report (r : T.report) =
  Json.Obj
    [ ("entries",
       Json.List
         (List.map
            (fun (e : T.entry) ->
              Json.Obj
                [ ("var", Json.String e.key.Fs_analysis.Summary.var);
                  ("fieldsig",
                   Json.List
                     (List.map
                        (fun f -> Json.String f)
                        e.key.Fs_analysis.Summary.fieldsig));
                  ("read_weight", Json.float e.read_weight);
                  ("write_weight", Json.float e.write_weight);
                  ("dominant_phase", Json.Int e.dominant_phase);
                  ("per_process_writes", Json.Bool e.per_process_writes);
                  ("decision", decision e.decision);
                  ("reason", Json.String e.reason) ])
            r.entries));
      ("plan",
       Json.List
         (List.map
            (fun a ->
              Json.String (Format.asprintf "%a" Fs_layout.Plan.pp_action a))
            r.plan)) ]

let phases (p : Phases.t) =
  Json.Obj
    [ ("procs", Json.Int p.Phases.nprocs);
      ("block", Json.Int p.block);
      ("static_phases", Json.Int p.static_phases);
      ("mapping",
       Json.String
         (match p.mapping with Phases.Exact -> "exact" | Folded -> "folded"));
      ("aggregate", counts p.aggregate);
      ("epochs",
       Json.List
         (List.map
            (fun (e : Phases.epoch) ->
              Json.Obj
                [ ("index", Json.Int e.index);
                  ("total", counts (Phases.epoch_total e));
                  ("per_proc",
                   Json.List
                     (Array.to_list (Array.map counts e.per_proc)));
                  ("write_shared",
                   Json.List
                     (List.map
                        (fun (var, procs) ->
                          Json.Obj
                            [ ("var", Json.String var);
                              ("writers",
                               Json.List (List.map (fun p -> Json.Int p) procs))
                            ])
                        e.write_shared)) ])
            p.epochs));
      ("violations",
       Json.List
         (List.map
            (fun (v : Phases.violation) ->
              Json.Obj
                [ ("epoch", Json.Int v.vepoch);
                  ("var", Json.String v.vvar);
                  ("writers",
                   Json.List (List.map (fun p -> Json.Int p) v.vwriters)) ])
            p.violations)) ]

let hotlines (h : Hotlines.t) =
  Json.Obj
    [ ("procs", Json.Int h.Hotlines.nprocs);
      ("block", Json.Int h.block);
      ("total", counts h.total);
      ("dropped", Json.Int h.dropped);
      ("lines",
       Json.List
         (List.map
            (fun (x : Hotlines.hot) ->
              let l = x.line in
              Json.Obj
                [ ("block", Json.Int l.Mpcache.line_block);
                  ("owner", Json.String x.owner);
                  ("cell_lo", Json.Int x.cell_lo);
                  ("cell_hi", Json.Int x.cell_hi);
                  ("counts", counts x.counts);
                  ("reads", Json.Int l.line_reads);
                  ("writes", Json.Int l.line_writes);
                  ("writers", Json.Int l.writers);
                  ("readers", Json.Int l.readers);
                  ("migrations", Json.Int l.migrations);
                  ("pingpong_aba", Json.Int l.pingpong);
                  ("pingpong_score", Json.float x.score);
                  ("max_run", Json.Int l.max_run);
                  ("max_inval_chain", Json.Int l.max_inval_chain);
                  ("written_words", Json.Int l.written_words);
                  ("shared_words", Json.Int l.shared_words);
                  ("verdict",
                   Json.String (Hotlines.verdict_to_string x.verdict));
                  ("fix", Json.String x.fix) ])
            h.hot)) ]
