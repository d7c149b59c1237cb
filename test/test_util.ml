(* Unit tests for lib/util: the deterministic PRNG, alignment arithmetic,
   table rendering and the small statistics helpers. *)

module Rng = Fs_util.Rng
module Align = Fs_util.Align
module Table = Fs_util.Table
module Stats = Fs_util.Stats

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let test_rng_invalid_bound () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 100 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_align_round_up () =
  Alcotest.(check int) "already aligned" 128 (Align.round_up 128 128);
  Alcotest.(check int) "rounds up" 128 (Align.round_up 1 128);
  Alcotest.(check int) "zero" 0 (Align.round_up 0 64);
  Alcotest.check_raises "bad align"
    (Invalid_argument "Align.round_up: align must be positive") (fun () ->
      ignore (Align.round_up 4 0))

let test_align_round_up_prop =
  QCheck.Test.make ~name:"round_up is smallest aligned >= n" ~count:500
    QCheck.(pair (int_range 0 100000) (int_range 1 512))
    (fun (n, a) ->
      let r = Align.round_up n a in
      r >= n && r mod a = 0 && r - n < a)

let test_align_helpers () =
  Alcotest.(check bool) "aligned" true (Align.is_aligned 256 128);
  Alcotest.(check bool) "not aligned" false (Align.is_aligned 260 128);
  Alcotest.(check int) "block of" 2 (Align.block_of ~block:128 257);
  Alcotest.(check int) "word of" 3 (Align.word_of ~word:4 12);
  Alcotest.(check bool) "power of two" true (Align.is_power_of_two 64);
  Alcotest.(check bool) "not power of two" false (Align.is_power_of_two 48);
  Alcotest.(check bool) "zero not power" false (Align.is_power_of_two 0)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Alcotest.(check bool) "has rule" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  (* header, rule, two rows, and the trailing newline's empty tail *)
  Alcotest.(check int) "five pieces" 5 (List.length lines)

let test_table_ragged () =
  let s = Table.render [ [ "a" ]; [ "b"; "c" ] ] in
  Alcotest.(check bool) "renders ragged rows" true (String.length s > 0)

let test_table_formats () =
  Alcotest.(check string) "pct" "56.5%" (Table.pct 0.565);
  Alcotest.(check string) "f1" "3.1" (Table.f1 3.14159);
  Alcotest.(check string) "f2" "3.14" (Table.f2 3.14159)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-6)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio 1 2);
  Alcotest.(check (float 1e-9)) "ratio den 0" 0.0 (Stats.ratio 1 0);
  Alcotest.(check (option int)) "argmax" (Some 3)
    (Stats.argmax float_of_int [ 1; 3; 2 ]);
  Alcotest.(check (option int)) "argmax empty" None (Stats.argmax float_of_int [])

(* The FALSESHARE_JOBS environment override: a positive integer wins
   over the detected core count, malformed or non-positive values are
   ignored, and the value is clamped to 64. *)
let test_default_jobs_env () =
  let with_env v f =
    (match v with
     | Some s -> Unix.putenv "FALSESHARE_JOBS" s
     | None -> Unix.putenv "FALSESHARE_JOBS" "");
    Fun.protect ~finally:(fun () -> Unix.putenv "FALSESHARE_JOBS" "") f
  in
  let detected = with_env None Fs_util.Par.default_jobs in
  with_env (Some "3") (fun () ->
      Alcotest.(check int) "override honored" 3 (Fs_util.Par.default_jobs ()));
  with_env (Some " 5 ") (fun () ->
      Alcotest.(check int) "whitespace tolerated" 5 (Fs_util.Par.default_jobs ()));
  with_env (Some "500") (fun () ->
      Alcotest.(check int) "clamped to 64" 64 (Fs_util.Par.default_jobs ()));
  List.iter
    (fun bad ->
      with_env (Some bad) (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "%S ignored" bad)
            detected (Fs_util.Par.default_jobs ())))
    [ "0"; "-2"; "lots"; "2.5" ]

(* ------------------------------------------------------------------ *)
(* Sha256: the NIST FIPS 180-2 vectors, plus the streaming interface —
   the store's content addresses are only as good as this digest *)

let test_sha256_vectors () =
  let check what expect input =
    Alcotest.(check string) what expect (Fs_util.Sha256.digest_hex input)
  in
  check "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
  check "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc";
  check "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (String.make 1_000_000 'a');
  (* padding edge cases: lengths 55/56/64 straddle the length-word split *)
  check "55 bytes"
    "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
    (String.make 55 'a');
  check "56 bytes"
    "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
    (String.make 56 'a');
  check "64 bytes"
    "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
    (String.make 64 'a')

let test_sha256_streaming () =
  (* feeding in ragged chunks must equal the one-shot digest *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let expect = Fs_util.Sha256.digest_hex msg in
  List.iter
    (fun chunk ->
      let ctx = Fs_util.Sha256.init () in
      let i = ref 0 in
      while !i < String.length msg do
        let n = min chunk (String.length msg - !i) in
        Fs_util.Sha256.feed ctx (String.sub msg !i n);
        i := !i + n
      done;
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d" chunk)
        expect (Fs_util.Sha256.hex ctx))
    [ 1; 3; 55; 64; 65; 997 ]

module Crc32 = Fs_util.Crc32

let test_crc32_known_answer () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.of_string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.of_string "")

(* the sliced 8-byte loop and its bytewise tail against a fold of [byte],
   for every offset and length 0-64 drawn over random data and a random
   running register *)
let test_crc32_sliced_matches_bytewise =
  let gen =
    QCheck.Gen.(
      string_size (int_range 0 80) >>= fun s ->
      int_range 0 (String.length s) >>= fun pos ->
      int_range 0 (min 64 (String.length s - pos)) >>= fun len ->
      int_range 0 0xffffffff >|= fun crc -> (s, pos, len, crc))
  in
  QCheck.Test.make ~name:"crc32 sliced string_sub/bigstring_sub = byte fold"
    ~count:2000
    (QCheck.make
       ~print:(fun (s, pos, len, crc) ->
         Printf.sprintf "%S pos %d len %d crc 0x%x" s pos len crc)
       gen)
    (fun (s, pos, len, crc) ->
      let expect = ref crc in
      for i = pos to pos + len - 1 do
        expect := Crc32.byte !expect (Char.code s.[i])
      done;
      let b =
        Bigarray.Array1.init Bigarray.char Bigarray.c_layout (String.length s)
          (String.get s)
      in
      Crc32.string_sub crc s pos len = !expect
      && Crc32.bigstring_sub crc b pos len = !expect)

let suite =
  [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seed_changes_stream;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    QCheck_alcotest.to_alcotest test_rng_bounds;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_invalid_bound;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "align round_up" `Quick test_align_round_up;
    QCheck_alcotest.to_alcotest test_align_round_up_prop;
    Alcotest.test_case "align helpers" `Quick test_align_helpers;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table ragged" `Quick test_table_ragged;
    Alcotest.test_case "table formats" `Quick test_table_formats;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "default_jobs env override" `Quick test_default_jobs_env;
    Alcotest.test_case "crc32 known answer" `Quick test_crc32_known_answer;
    QCheck_alcotest.to_alcotest test_crc32_sliced_matches_bytewise ]
