(* What each workload runs: the programs, their scales, the layouts and
   the serve request kinds.  Shared by the runs and by [bench expected],
   which computes the committed reference counts for every op listed
   here. *)

module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads

type prog = { wname : string; scale : int; nprocs : int }

let prog wname scale =
  { wname; scale; nprocs = (Ws.find wname).W.fig3_procs }

let build p = (Ws.find p.wname).W.build ~nprocs:p.nprocs ~scale:p.scale

let dynamic p = (Ws.find p.wname).W.dynamic

let tag p = Printf.sprintf "%s/s%d" p.wname p.scale

(* [analyze]: five programs whose Pipeline.run latencies form separate
   groups, fastest first, so p50 sits inside the middle group and p90
   inside the slowest *)
let analyze_progs =
  [ prog "taskbag" 16; prog "water" 2; prog "maxflow" 4; prog "fmm" 5;
    prog "pverify" 4 ]

(* the work-stealing seeds the taskbag op may run under; the workload
   seed picks one, and each has committed reference counts *)
let sched_seeds = [| 11; 23; 37; 53 |]

let analyze_block = 128

(* [sweep] and [stream]: traces recorded once in set-up, each about
   1.4-1.6M events *)
let replay_progs = [ prog "pverify" 8; prog "maxflow" 32; prog "water" 32 ]

let sweep_blocks = [ 16; 32; 64; 128; 256 ]

let stream_block = 128

(* [stream]: the sweep traces plus one about twice their size, whose two
   ops are a quarter of a cycle and slower than every other op, so p90
   falls inside that group rather than on the tail of one cluster *)
let stream_progs = replay_progs @ [ prog "pverify" 11 ]

type version = N | C

let versions = [ N; C ]

let version_name = function N -> "N" | C -> "C"

(* [serve]: the registered program behind each endpoint, plus inline
   ParC sources.  analyze runs on larger programs than hotlines and
   repair, so that its misses are the fastest misses and p50 falls on
   them (see NOTES.md).  At maxflow s4 the repair result depends on
   [top], which every measured miss varies; s5 does not. *)
let serve_registered =
  [ ("analyze", prog "maxflow" 8); ("analyze", prog "water" 8);
    ("hotlines", prog "maxflow" 5); ("hotlines", prog "water" 4);
    ("repair", prog "maxflow" 5); ("repair", prog "water" 4) ]

let serve_progs = List.sort_uniq compare (List.map snd serve_registered)

let serve_sources = [ "histogram.parc"; "stripes.parc" ]

let source_nprocs = 8

(* reference-count keys *)
let analyze_key p ~sched =
  match sched with
  | None -> "analyze/" ^ tag p
  | Some s -> Printf.sprintf "analyze/%s/sched%d" (tag p) s

let replay_key p v ~block =
  Printf.sprintf "replay/%s/%s/b%d" (tag p) (version_name v) block

let machine_key p v = Printf.sprintf "machine/%s/%s" (tag p) (version_name v)

let serve_key endpoint p = Printf.sprintf "serve/%s/%s" endpoint (tag p)

let source_key file = "serve/analyze/source/" ^ file
