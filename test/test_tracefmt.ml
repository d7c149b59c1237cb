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
   any of the workload's layout versions at 16B or 128B, on one or two
   shards, lands on counts bit-identical to the in-memory engine.     *)

let prop_roundtrip =
  QCheck.Test.make
    ~name:
      "disk round-trip + streamed replay identity (workloads x versions x \
       {16,128}B)"
    ~count:48
    QCheck.(
      quad
        (int_range 0 (List.length names - 1))
        (int_range 0 5) (int_range 1 300) bool)
    (fun (wi, mix, block_events, big_block) ->
      let name = List.nth names wi in
      let w, nprocs, prog, r = trace_of name in
      let trace = r.Sim.trace in
      let block = if big_block then 128 else 16 in
      let shards = 1 + (mix / 3 mod 2) in
      let version =
        List.nth w.W.versions (mix mod List.length w.W.versions)
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
      let reference =
        (R.simulate_sharded trace ~shards:1 ~layout ~config).R.counts
      in
      let s = Ct.of_file_stream path in
      let st = R.simulate_sharded_stream s ~shards ~layout ~config in
      Ct.Stream.close s;
      if st.R.counts <> reference then
        QCheck.Test.fail_reportf
          "%s: streamed counts differ from in-memory (block %d, %d shard(s), \
           block_events %d)"
          name block shards block_events;
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
    QCheck_alcotest.to_alcotest prop_roundtrip ]
