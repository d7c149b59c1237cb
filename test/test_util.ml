(* Unit tests for lib/util: the deterministic PRNG, alignment arithmetic,
   table rendering, the small statistics helpers, and request coalescing
   and memoization. *)

module Rng = Fs_util.Rng
module Align = Fs_util.Align
module Table = Fs_util.Table
module Stats = Fs_util.Stats
module Sf = Fs_util.Singleflight
module Memo = Fs_util.Memo

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
  QCheck.Test.make ~name:"crc32 sliced string_sub = byte fold"
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
      Crc32.string_sub crc s pos len = !expect)

(* ------------------------------------------------------------------ *)
(* Singleflight and Memo                                               *)

(* A gate to hold a computation at: [hold] (called inside the
   computation) blocks until [release]; [wait_entered] returns once some
   computation is being held. *)
let make_gate () =
  let m = Mutex.create () and c = Condition.create () in
  let entered = ref false and released = ref false in
  let hold () =
    Mutex.protect m (fun () ->
        entered := true;
        Condition.broadcast c;
        while not !released do
          Condition.wait c m
        done)
  in
  let wait_entered () =
    Mutex.protect m (fun () ->
        while not !entered do
          Condition.wait c m
        done)
  in
  let release () =
    Mutex.protect m (fun () ->
        released := true;
        Condition.broadcast c)
  in
  (hold, wait_entered, release)

(* a leader held inside its computation while two more callers arrive;
   [call i] runs on thread [i] *)
let herd_of_three call =
  let hold, wait_entered, release = make_gate () in
  let leader = Thread.create (call hold) 0 in
  wait_entered ();
  let f1 = Thread.create (call hold) 1 and f2 = Thread.create (call hold) 2 in
  Thread.delay 0.05;
  release ();
  List.iter Thread.join [ leader; f1; f2 ]

let test_singleflight () =
  let sf = Sf.create () in
  let calls = Atomic.make 0 in
  let results = Array.make 3 ("?", `Joined) in
  herd_of_three (fun hold i ->
      results.(i) <-
        Sf.run sf "k" (fun () ->
            Atomic.incr calls;
            hold ();
            "payload"));
  Alcotest.(check int) "one computation" 1 (Atomic.get calls);
  Array.iter
    (fun (v, _) -> Alcotest.(check string) "shared payload" "payload" v)
    results;
  let leds =
    Array.to_list results
    |> List.filter (fun (_, role) -> role = `Led)
    |> List.length
  in
  Alcotest.(check int) "exactly one leader" 1 leds;
  (* not a cache: after the flight lands, the next caller leads anew *)
  let v, role = Sf.run sf "k" (fun () -> Atomic.incr calls; "again") in
  Alcotest.(check string) "fresh flight" "again" v;
  Alcotest.(check bool) "fresh leader" true (role = `Led);
  Alcotest.(check int) "second computation" 2 (Atomic.get calls);
  (* a leader's exception reaches everyone — here, the only caller *)
  (match Sf.run sf "boom" (fun () -> failwith "flight failed") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "leader exn" "flight failed" m);
  (* and the failed flight is retired: the key is reusable *)
  let v, _ = Sf.run sf "boom" (fun () -> "recovered") in
  Alcotest.(check string) "failed key reusable" "recovered" v

let check_stats what (hits, misses, coalesced, evictions) (st : Memo.stats) =
  Alcotest.(check (list int))
    (what ^ ": hits, misses, coalesced, evictions")
    [ hits; misses; coalesced; evictions ]
    [ st.hits; st.misses; st.coalesced; st.evictions ]

let test_memo_leader_raises () =
  let m = Memo.create () in
  let calls = Atomic.make 0 in
  let outcomes = Array.make 3 "?" in
  herd_of_three (fun hold i ->
      outcomes.(i) <-
        (match
           Memo.get m "k" (fun () ->
               Atomic.incr calls;
               hold ();
               failwith "leader failed")
         with
        | _ -> "returned"
        | exception Failure msg -> msg));
  Alcotest.(check int) "one computation" 1 (Atomic.get calls);
  Array.iter
    (fun o -> Alcotest.(check string) "every caller raises" "leader failed" o)
    outcomes;
  (* nothing was cached: the next lookup computes *)
  let v = Memo.get m "k" (fun () -> Atomic.incr calls; 42) in
  Alcotest.(check int) "recomputed" 42 v;
  Alcotest.(check int) "second computation" 2 (Atomic.get calls);
  check_stats "after" (0, 2, 0, 0) (Memo.stats m)

let test_memo_eviction () =
  let m = Memo.create ~capacity:1 () in
  ignore (Memo.get m 2 (fun () -> 2));
  ignore (Memo.get m 3 (fun () -> 3));
  check_stats "capacity 1" (0, 2, 0, 1) (Memo.stats m);
  (* least recently used goes first: touching 1 makes 2 the victim *)
  let m = Memo.create ~capacity:2 () in
  let get k = Memo.get m k (fun () -> k * 10) in
  List.iter (fun k -> ignore (get k)) [ 1; 2; 1; 3 ];
  Alcotest.(check int) "1 kept" 10 (get 1);
  check_stats "before 2" (2, 3, 0, 1) (Memo.stats m);
  Alcotest.(check int) "2 evicted, recomputed" 20 (get 2);
  check_stats "after 2" (2, 4, 0, 2) (Memo.stats m);
  Memo.clear m;
  check_stats "cleared" (0, 0, 0, 0) (Memo.stats m);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Memo.create: capacity must be >= 1") (fun () ->
      ignore (Memo.create ~capacity:0 ()))

let test_memo_get_all () =
  let m = Memo.create () in
  let calls = Atomic.make 0 in
  let items ks =
    List.map (fun k -> (k, fun () -> Atomic.incr calls; k * k)) ks
  in
  Alcotest.(check (list int)) "input order" [ 9; 4; 9; 1 ]
    (Memo.get_all ~jobs:2 m (items [ 3; 2; 3; 1 ]));
  Alcotest.(check int) "duplicates computed once" 3 (Atomic.get calls);
  check_stats "first batch" (0, 3, 1, 0) (Memo.stats m);
  Alcotest.(check (list int)) "all hits" [ 1; 4 ]
    (Memo.get_all ~jobs:2 m (items [ 1; 2 ]));
  Alcotest.(check int) "hits compute nothing" 3 (Atomic.get calls);
  check_stats "second batch" (2, 3, 1, 0) (Memo.stats m)

(* Four domains race over overlapping keys at capacity 2, so hits,
   misses, coalesced flights and evictions all happen concurrently.
   Every caller gets its own key's value, each lookup is counted exactly
   once, and evictions never exceed insertions. *)
let test_memo_concurrent () =
  let m = Memo.create ~capacity:2 () in
  let compute k () =
    (* long enough for flights on one key to overlap *)
    let acc = ref 0 in
    for i = 1 to 20_000 do
      acc := !acc + (i land k)
    done;
    (k, !acc)
  in
  let lookups_per_worker = 8 in
  let failures = Atomic.make 0 in
  for _ = 1 to 3 do
    Fs_util.Par.iter ~jobs:4
      (fun worker ->
        for i = 0 to lookups_per_worker - 1 do
          let k = 2 + ((worker + i) mod 3) in
          if fst (Memo.get m k (compute k)) <> k then Atomic.incr failures
        done)
      [ 0; 1; 2; 3 ]
  done;
  Alcotest.(check int) "every value usable" 0 (Atomic.get failures);
  let st = Memo.stats m in
  Alcotest.(check int) "every lookup is a hit, a miss or coalesced"
    (3 * 4 * lookups_per_worker)
    (st.hits + st.misses + st.coalesced);
  Alcotest.(check bool)
    (Printf.sprintf "evictions (%d) bounded by misses (%d)" st.evictions
       st.misses)
    true
    (st.evictions <= st.misses && st.evictions > 0)

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
    QCheck_alcotest.to_alcotest test_crc32_sliced_matches_bytewise;
    Alcotest.test_case "singleflight" `Quick test_singleflight;
    Alcotest.test_case "memo leader raises" `Quick test_memo_leader_raises;
    Alcotest.test_case "memo eviction" `Quick test_memo_eviction;
    Alcotest.test_case "memo get_all" `Quick test_memo_get_all;
    Alcotest.test_case "memo concurrent pool access" `Quick
      test_memo_concurrent ]
