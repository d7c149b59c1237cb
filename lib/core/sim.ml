module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Ksr = Fs_machine.Ksr

type recorded = { trace : Fs_trace.Cell_trace.t; interp : Interp.result }

let record ?max_steps ?sched prog ~nprocs =
  let trace, interp = Interp.record ?max_steps ?sched prog ~nprocs in
  { trace; interp }

let replay ?track_blocks ?track_pairs ?track_lines ?flight recorded layout
    ~nprocs =
  let cache =
    Mpcache.create ?track_blocks ?track_pairs ?track_lines
      ~max_addr:(Layout.size layout)
      (Mpcache.default_config ~nprocs ~block:(Layout.block layout))
  in
  (cache, Replay.simulate ?flight recorded.trace ~layout ~cache)

type cache_run = {
  counts : Mpcache.counts;
  per_block : (int * Mpcache.counts) list;
  layout_bytes : int;
  interp : Interp.result;
}

let cache_sim ?(track_blocks = false) ?flight ~recorded prog plan ~nprocs
    ~block =
  let layout = Layout.realize prog plan ~block in
  let cache, run = replay ~track_blocks ?flight recorded layout ~nprocs in
  {
    counts = run.Replay.counts;
    per_block = (if track_blocks then Mpcache.per_block cache else []);
    layout_bytes = Layout.size layout;
    interp = recorded.interp;
  }

type timed_run = { machine : Ksr.result; work : int array }

let machine_sim ~recorded prog plan ~nprocs =
  let config = Ksr.default_config ~nprocs in
  let layout = Layout.realize prog plan ~block:config.Ksr.block in
  let machine = Ksr.create config in
  Replay.machine recorded.trace ~layout machine;
  { machine = Ksr.finish machine; work = recorded.interp.Interp.work }

let compiler_plan prog ~nprocs =
  (Fs_transform.Transform.plan prog ~nprocs).Fs_transform.Transform.plan
