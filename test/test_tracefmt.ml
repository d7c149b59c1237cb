(* The on-disk trace format: disk round-trips, streamed replay identity
   against the in-memory engine, corruption detection (truncation
   anywhere, CRC damage naming the bad block), and atomic writes. *)

module Ct = Fs_trace.Cell_trace
module R = Fs_replay.Replay
module C = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Sim = Falseshare.Sim
module E = Falseshare.Experiments

let tmp tag = Filename.temp_file ("fstracefmt-" ^ tag) ".fstrace"

let with_tmp tag f =
  let path = tmp tag in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* one recorded trace per workload, shared across every property case *)
let recorded : (string, W.t * int * Fs_ir.Ast.program * Sim.recorded) Hashtbl.t
    =
  Hashtbl.create 16

let trace_of name =
  match Hashtbl.find_opt recorded name with
  | Some x -> x
  | None ->
    let w = Ws.find name in
    let nprocs = w.W.fig3_procs in
    let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
    let r = Sim.record prog ~nprocs in
    let x = (w, nprocs, prog, r) in
    Hashtbl.add recorded name x;
    x

let names = List.map (fun (w : W.t) -> w.W.name) Ws.all

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Round-trip property: for every workload and any block granularity,
   the file reads back equal, and replaying the streamed file through
   any of the workload's layout versions at 16B or 128B lands on counts
   bit-identical to the in-memory engine.                             *)

let prop_roundtrip =
  QCheck.Test.make
    ~name:
      "disk round-trip + streamed replay identity (workloads x versions x \
       {16,128}B)"
    ~count:48
    QCheck.(
      quad
        (int_range 0 (List.length names - 1))
        (int_range 0 2) (int_range 1 300) bool)
    (fun (wi, vi, block_events, big_block) ->
      let name = List.nth names wi in
      let w, nprocs, prog, r = trace_of name in
      let trace = r.Sim.trace in
      let block = if big_block then 128 else 16 in
      let version =
        List.nth w.W.versions (vi mod List.length w.W.versions)
      in
      with_tmp "prop" @@ fun path ->
      Ct.write_file ~block_events trace path;
      let back = Ct.read_file path in
      if not (Ct.equal trace back) then
        QCheck.Test.fail_reportf "%s: round-trip not equal (block_events %d)"
          name block_events;
      let plan =
        E.plan_for w version prog ~nprocs ~scale:w.W.default_scale
      in
      let layout = Layout.realize prog plan ~block in
      let config = C.default_config ~nprocs ~block in
      let cache () = C.create ~max_addr:(Layout.size layout) config in
      let reference = (R.simulate trace ~layout ~cache:(cache ())).R.counts in
      let s = Ct.of_file_stream path in
      let st = R.simulate_stream s ~layout ~cache:(cache ()) in
      Ct.Stream.close s;
      if st.R.counts <> reference then
        QCheck.Test.fail_reportf
          "%s: streamed counts differ from in-memory (block %d, \
           block_events %d)"
          name block block_events;
      true)

(* ------------------------------------------------------------------ *)
(* Corruption: damaged input is refused, never mis-decoded.           *)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Ct.Corrupt msg -> msg

(* little-endian u64 at [off], as an int *)
let u64_at s off =
  let v = ref 0 in
  for k = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[off + k]
  done;
  !v

let v2_bytes ?(block_events = 1024) name =
  let _, _, _, r = trace_of name in
  let path = tmp "corrupt" in
  Ct.write_file ~block_events r.Sim.trace path;
  let s = read_all path in
  Sys.remove path;
  s

let test_truncation () =
  let whole = v2_bytes "pverify" in
  let len = String.length whole in
  let index_off = u64_at whole (len - 24) in
  (* mid-block, mid-footer (just before the index), mid-index,
     mid-trailer, and mid-header (inside the name table): every cut
     destroys the trailer, so both readers refuse at open *)
  List.iter
    (fun (what, cut) ->
      with_tmp "trunc" @@ fun path ->
      write_all path (String.sub whole 0 cut);
      ignore (expect_corrupt (what ^ " (stream)")
                (fun () -> Ct.of_file_stream path));
      ignore (expect_corrupt (what ^ " (read_file)")
                (fun () -> Ct.read_file path)))
    [ ("mid-block", index_off / 2);
      ("mid-footer", index_off - 4);
      ("mid-index", index_off + ((len - 24 - index_off) / 2));
      ("mid-trailer", len - 9);
      ("mid-header", 29) ]

let test_crc_corruption () =
  let whole = v2_bytes "pverify" in
  let len = String.length whole in
  let index_off = u64_at whole (len - 24) in
  (* flip one payload byte well past the tiny header: the index still
     parses, so the stream opens — but decoding must stop at exactly the
     damaged block and name it *)
  let p = index_off * 2 / 3 in
  let damaged = Bytes.of_string whole in
  Bytes.set damaged p (Char.chr (Char.code (Bytes.get damaged p) lxor 0x55));
  with_tmp "crc" @@ fun path ->
  write_all path (Bytes.to_string damaged);
  let s = Ct.of_file_stream path in
  let buf = Array.make (Ct.Stream.max_block_events s) 0 in
  let bad = ref (-1) in
  let msg = ref "" in
  (try
     for k = 0 to Ct.Stream.nblocks s - 1 do
       ignore (Ct.Stream.decode_block s k buf)
     done
   with Ct.Corrupt m ->
     msg := m;
     (* recover which block the message names and check it also fails in
        isolation while its neighbors still decode *)
     Scanf.sscanf m "block %d" (fun k -> bad := k));
  Alcotest.(check bool) "one block failed" true (!bad >= 0);
  let prefix = Printf.sprintf "block %d" !bad in
  Alcotest.(check bool)
    (Printf.sprintf "message %S names block %d" !msg !bad)
    true
    (String.length !msg >= String.length prefix
    && String.sub !msg 0 (String.length prefix) = prefix);
  ignore
    (expect_corrupt "damaged block in isolation"
       (fun () -> Ct.Stream.decode_block s !bad buf));
  if !bad > 0 then ignore (Ct.Stream.decode_block s (!bad - 1) buf);
  if !bad < Ct.Stream.nblocks s - 1 then
    ignore (Ct.Stream.decode_block s (!bad + 1) buf);
  Ct.Stream.close s

let test_index_crc () =
  let whole = v2_bytes "pverify" in
  let len = String.length whole in
  let index_off = u64_at whole (len - 24) in
  let p = index_off + ((len - 24 - index_off) / 2) in
  let damaged = Bytes.of_string whole in
  Bytes.set damaged p (Char.chr (Char.code (Bytes.get damaged p) lxor 0x55));
  with_tmp "idx" @@ fun path ->
  write_all path (Bytes.to_string damaged);
  ignore
    (expect_corrupt "damaged index" (fun () -> Ct.of_file_stream path))

(* A compact access (lead byte tag 6/7) reuses its proc's last var, 0
   until a standard access sets one, so in a trace that declares no
   variables it names a var that does not exist.  The crafted file is
   otherwise well formed: nprocs 2, nvars 0, one block holding the single
   byte 0x16 (compact read, proc delta +1), valid block and index CRCs. *)
let no_vars_file () =
  let u64s vs =
    String.concat ""
      (List.map
         (fun v ->
           let b = Bytes.create 8 in
           Bytes.set_int64_le b 0 (Int64.of_int v);
           Bytes.to_string b)
         vs)
  in
  let payload = "\x16" in
  let head = "FSTRACE2" ^ u64s [ 2; 0; 1 ] in
  let block =
    payload ^ u64s [ 1; String.length payload; Fs_util.Crc32.of_string payload ]
  in
  let index = u64s [ 1; String.length head; 1; 0; 1 ] in
  let index_off = String.length head + String.length block in
  head ^ block ^ index
  ^ u64s [ index_off; Fs_util.Crc32.of_string index ]
  ^ "FSTRIDX2"

let test_compact_access_without_vars () =
  with_tmp "novars" @@ fun path ->
  write_all path (no_vars_file ());
  let msg = expect_corrupt "read_file" (fun () -> Ct.read_file path) in
  Alcotest.(check string) "names the var" "block 0: var 0 out of range" msg;
  let s = Ct.of_file_stream path in
  let buf = Array.make (Ct.Stream.max_block_events s) 0 in
  ignore
    (expect_corrupt "decode_block" (fun () -> Ct.Stream.decode_block s 0 buf));
  Ct.Stream.close s

(* ------------------------------------------------------------------ *)
(* The bytes on disk are pinned: (file length, CRC-32 of the whole
   file) of [write_file] at the default block size for the 14 workloads
   at scale 1 (Figure 3 processor counts, sched seed 1 for the dynamic
   four), and the streaming [Writer.recorder] path writes the same bytes
   as [write_file] of the in-memory recording, at the default block size
   and at 1000 events per block.                                       *)

module Interp = Fs_interp.Interp
module Sched = Fs_sched.Sched

let pinned_files : (string * int * int) list =
  [ ("maxflow", 98393, 0x8600dccc);
    ("pverify", 56778, 0xcd11c10f);
    ("topopt", 10977, 0xffc5b15b);
    ("fmm", 124543, 0x36ab406f);
    ("radiosity", 46424, 0xb4b83680);
    ("raytrace", 258036, 0x87ff16c5);
    ("locusroute", 48302, 0xd55c18ba);
    ("mp3d", 24325, 0x7d7198ad);
    ("pthor", 27646, 0x85d947cb);
    ("water", 106751, 0x751740ca);
    ("fib", 2754, 0xe1042d8f);
    ("taskbag", 9668, 0x577e5688);
    ("stencil", 8677, 0x4fca19e2);
    ("dstress", 4895, 0x5e1173d0) ]

let scale1 (w : W.t) =
  let nprocs = w.fig3_procs in
  let sched = if w.dynamic then Some (Sched.seeded 1) else None in
  (w.build ~nprocs ~scale:1, nprocs, sched)

let file_bytes write =
  with_tmp "pin" @@ fun path ->
  write path;
  read_all path

let test_pinned_files () =
  let measured =
    List.map
      (fun (w : W.t) ->
        let prog, nprocs, sched = scale1 w in
        let trace = fst (Interp.record ?sched prog ~nprocs) in
        let s = file_bytes (Ct.write_file trace) in
        (w.name, String.length s, Fs_util.Crc32.of_string s))
      Ws.every
  in
  if measured <> pinned_files then
    Alcotest.fail
      (String.concat ""
         ("trace file bytes moved; measured table:\n"
          :: List.map
               (fun (l, n, c) -> Printf.sprintf "    (%S, %d, 0x%08x);\n" l n c)
               measured))

let test_recorder_matches_write_file () =
  List.iter
    (fun (w : W.t) ->
      let prog, nprocs, sched = scale1 w in
      let trace = fst (Interp.record ?sched prog ~nprocs) in
      List.iter
        (fun block_events ->
          let whole = file_bytes (Ct.write_file ?block_events trace) in
          let streamed =
            file_bytes (fun path ->
                let wr =
                  Ct.Writer.create ?block_events ~vars:(Interp.vars prog)
                    ~nprocs path
                in
                ignore
                  (Interp.run_cells ?sched prog ~nprocs
                     ~cells:(Ct.Writer.recorder wr));
                Ct.Writer.close wr)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s (block_events %s)" w.name
               (match block_events with
                | None -> "default"
                | Some n -> string_of_int n))
            true (whole = streamed))
        [ None; Some 1000 ])
    Ws.every

(* ------------------------------------------------------------------ *)
(* Atomic writes: a write that fails part-way leaves neither the target
   nor its temp file behind.                                           *)

let test_failed_write_leaves_nothing () =
  (* proc 3 in a one-processor trace: [create] and [push] accept it, the
     encoder refuses it against the header *)
  let trace = Ct.create ~vars:[| "x" |] ~nprocs:1 in
  let r = Ct.recorder trace in
  r.Fs_trace.Cell_listener.access ~proc:0 ~write:false ~var:0 ~cell:0;
  r.Fs_trace.Cell_listener.access ~proc:3 ~write:true ~var:0 ~cell:1;
  let path = tmp "fail" in
  Sys.remove path;
  (match Ct.write_file trace path with
   | () -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "no target file" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp file" false (Sys.file_exists (path ^ ".tmp"))

let suite =
  [ Alcotest.test_case
      "v2 truncation refused (block/footer/index/trailer/header)" `Quick
      test_truncation;
    Alcotest.test_case "v2 CRC damage names the bad block" `Quick
      test_crc_corruption;
    Alcotest.test_case "v2 index damage refused at open" `Quick test_index_crc;
    Alcotest.test_case "failed write leaves no file behind" `Quick
      test_failed_write_leaves_nothing;
    Alcotest.test_case "compact access in a trace without variables refused"
      `Quick test_compact_access_without_vars;
    Alcotest.test_case "v2 file bytes pinned (14 workloads, scale 1)" `Quick
      test_pinned_files;
    Alcotest.test_case "streaming recorder writes the write_file bytes" `Quick
      test_recorder_matches_write_file;
    QCheck_alcotest.to_alcotest prop_roundtrip ]
