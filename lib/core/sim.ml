module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Ksr = Fs_machine.Ksr

type recorded = { trace : Fs_trace.Cell_trace.t; interp : Interp.result }

let record ?max_steps ?sched prog ~nprocs =
  let trace, interp = Interp.record ?max_steps ?sched prog ~nprocs in
  { trace; interp }

type cache_run = {
  counts : Mpcache.counts;
  per_block : (int * Mpcache.counts) list;
  layout_bytes : int;
  interp : Interp.result;
}

let cache_sim ?(cache_bytes = 32 * 1024) ?(assoc = 4) ?(track_blocks = false)
    ?flight ?sched ?recorded prog plan ~nprocs ~block =
  let recorded =
    match recorded with Some r -> r | None -> record ?sched prog ~nprocs
  in
  let layout = Layout.realize prog plan ~block in
  let config = { Mpcache.nprocs; block; cache_bytes; assoc } in
  let cache =
    Mpcache.create ~track_blocks ~max_addr:(Layout.size layout) config
  in
  let run = Replay.simulate ?flight recorded.trace ~layout ~cache in
  {
    counts = run.Replay.counts;
    per_block = (if track_blocks then Mpcache.per_block cache else []);
    layout_bytes = Layout.size layout;
    interp = recorded.interp;
  }

type timed_run = { machine : Ksr.result; work : int array }

let machine_sim ?config ?sched ?recorded prog plan ~nprocs =
  let config =
    match config with Some c -> c | None -> Ksr.default_config ~nprocs
  in
  let recorded =
    match recorded with Some r -> r | None -> record ?sched prog ~nprocs
  in
  let layout = Layout.realize prog plan ~block:config.Ksr.block in
  let machine = Ksr.create config in
  Replay.machine recorded.trace ~layout machine;
  { machine = Ksr.finish machine; work = recorded.interp.Interp.work }

let compiler_plan ?options prog ~nprocs =
  (Fs_transform.Transform.plan ?options prog ~nprocs).Fs_transform.Transform.plan
