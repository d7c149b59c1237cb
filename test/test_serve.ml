(* Tests for the analysis daemon: the HTTP reader/writer pair, the
   content-addressed result store (round-trip, persistence, LRU
   eviction, quarantine, contention), singleflight coalescing, the trace
   memo's in-flight coalescing under the domain pool, and the daemon end
   to end over real loopback sockets — including the warm-cache path,
   the Prometheus surface (validated by the same independent exposition
   checker the obs suite uses), and bounded-queue backpressure. *)

open Fs_ir.Dsl
module Srv = Fs_serve.Server
module Http = Fs_serve.Http
module Store = Fs_serve.Store
module Sha256 = Fs_util.Sha256
module Memo = Falseshare.Trace_memo
module W = Fs_workloads.Workload
module Json = Fs_obs.Json

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fs-serve-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* HTTP reader                                                         *)

let feed_request raw =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let n = Unix.write_substring a raw 0 (String.length raw) in
  assert (n = String.length raw);
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () -> Http.read_request b)

let test_http_reader () =
  (match
     feed_request
       "POST /an%20alyze?x=a%2Bb&flag HTTP/1.1\r\nHost: h\r\nContent-Type: \
        application/json\r\nContent-Length: 11\r\n\r\nhello world"
   with
  | Some req ->
    Alcotest.(check string) "method" "POST" req.Http.meth;
    Alcotest.(check string) "decoded path" "/an alyze" req.Http.path;
    Alcotest.(check (option string)) "decoded query" (Some "a+b")
      (Http.query_param req "x");
    Alcotest.(check (option string)) "bare query key" (Some "")
      (Http.query_param req "flag");
    Alcotest.(check (option string)) "case-insensitive header"
      (Some "application/json")
      (Http.header req "CONTENT-type");
    Alcotest.(check string) "body" "hello world" req.Http.body
  | None -> Alcotest.fail "request not parsed");
  (* bare-\n separators (hand-typed clients) parse too *)
  (match feed_request "GET /x HTTP/1.1\nHost: h\n\n" with
  | Some req -> Alcotest.(check string) "lf path" "/x" req.Http.path
  | None -> Alcotest.fail "lf request not parsed");
  (* clean EOF before any byte is a quiet None, not an error *)
  (match feed_request "" with
  | None -> ()
  | Some _ -> Alcotest.fail "EOF parsed as a request");
  let reject what raw =
    match feed_request raw with
    | exception Http.Bad_request _ -> ()
    | _ -> Alcotest.fail (what ^ ": accepted")
  in
  reject "garbage request line" "NONSENSE\r\n\r\n";
  reject "bad version" "GET / HTTP/2\r\n\r\n";
  reject "bad content-length" "GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n";
  reject "truncated body" "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
  reject "over-limit body"
    "POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
  reject "truncated escape" "GET /a%2 HTTP/1.1\r\n\r\n"

(* ------------------------------------------------------------------ *)
(* Sha256 content addresses                                            *)

let test_store_key () =
  let k = Store.key [ "a"; "b" ] in
  Alcotest.(check int) "64 hex chars" 64 (String.length k);
  Alcotest.(check bool) "hex alphabet" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k);
  Alcotest.(check string) "deterministic" k (Store.key [ "a"; "b" ]);
  (* length prefixes make part boundaries real: ab|c and a|bc differ *)
  Alcotest.(check bool) "boundaries matter" false
    (Store.key [ "ab"; "c" ] = Store.key [ "a"; "bc" ]);
  Alcotest.(check bool) "arity matters" false
    (Store.key [ "ab" ] = Store.key [ "ab"; "" ]);
  (* the underlying digest matches the NIST vector *)
  Alcotest.(check string) "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc")

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let test_store_roundtrip () =
  let dir = fresh_dir "rt" in
  let s = Store.open_ dir in
  let k = Store.key [ "roundtrip" ] in
  (match Store.find s k with
  | Ok None -> ()
  | _ -> Alcotest.fail "fresh store not a miss");
  let payload = "{\"x\":1}\nbinary\x00bits\xff" in
  Store.put s k payload;
  (match Store.find s k with
  | Ok (Some p) -> Alcotest.(check string) "payload survives" payload p
  | _ -> Alcotest.fail "put entry not found");
  (* overwrite with new content *)
  Store.put s k "v2";
  (match Store.find s k with
  | Ok (Some p) -> Alcotest.(check string) "overwritten" "v2" p
  | _ -> Alcotest.fail "overwritten entry not found");
  let st = Store.stats s in
  Alcotest.(check int) "hits" 2 st.Store.hits;
  Alcotest.(check int) "misses" 1 st.Store.misses;
  Alcotest.(check int) "puts" 2 st.Store.puts;
  Alcotest.(check int) "entries" 1 st.Store.entries;
  (* a second handle on the same directory sees the entry: the store is
     durable across daemon restarts *)
  let s2 = Store.open_ dir in
  (match Store.find s2 k with
  | Ok (Some p) -> Alcotest.(check string) "persistent" "v2" p
  | _ -> Alcotest.fail "entry lost across reopen");
  Store.clear s2;
  (match Store.find s2 k with
  | Ok None -> ()
  | _ -> Alcotest.fail "clear left the entry");
  Alcotest.(check int) "clear removed bytes" 0 (Store.stats s2).Store.bytes

let test_store_eviction () =
  let payload tag = String.make 64 tag in
  (* measure what one entry really costs on disk (header + payload)
     before picking a budget that holds exactly two of them *)
  let size =
    let probe = Store.open_ (fresh_dir "lru-probe") in
    Store.put probe (Store.key [ "probe" ]) (payload 'p');
    (Store.stats probe).Store.bytes
  in
  let dir = fresh_dir "lru" in
  let s = Store.open_ ~budget_bytes:(2 * size) dir in
  let ka = Store.key [ "a" ] and kb = Store.key [ "b" ] and kc = Store.key [ "c" ] in
  Store.put s ka (payload 'a');
  Store.put s kb (payload 'b');
  (* touch [a] so [b] is the least recently used *)
  (match Store.find s ka with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "a missing before eviction");
  Store.put s kc (payload 'c');
  let st = Store.stats s in
  Alcotest.(check bool) "evicted something" true (st.Store.evictions >= 1);
  Alcotest.(check bool) "budget holds" true
    (st.Store.bytes <= 2 * size);
  (match Store.find s kb with
  | Ok None -> ()
  | _ -> Alcotest.fail "LRU victim [b] still present");
  (match (Store.find s ka, Store.find s kc) with
  | Ok (Some _), Ok (Some _) -> ()
  | _ -> Alcotest.fail "recently used entries lost");
  (* one payload bigger than the whole budget is still accepted *)
  let big = String.make (4 * size) 'B' in
  Store.put s ka big;
  (match Store.find s ka with
  | Ok (Some p) -> Alcotest.(check int) "oversized accepted" (String.length big) (String.length p)
  | _ -> Alcotest.fail "oversized put lost")

let test_store_quarantine () =
  let dir = fresh_dir "quar" in
  let s = Store.open_ dir in
  let k = Store.key [ "poison" ] in
  Store.put s k "good payload";
  (* flip payload bytes on disk behind the store's back *)
  let path = Filename.concat dir (k ^ ".entry") in
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let bad = Bytes.of_string text in
  Bytes.set bad (Bytes.length bad - 1) '!';
  let oc = open_out_bin path in
  output_bytes oc bad;
  close_out oc;
  (match Store.find s k with
  | Error c ->
    Alcotest.(check string) "corrupt key" k c.Store.ckey;
    Tutil.check_contains "reason names the checksum" c.Store.reason "checksum";
    (match c.Store.quarantined_to with
     | Some q ->
       Alcotest.(check bool) "quarantined file exists" true (Sys.file_exists q);
       Tutil.check_contains "under quarantine/" q "quarantine"
     | None -> Alcotest.fail "corrupt entry not moved aside")
  | _ -> Alcotest.fail "corrupt entry served or missed");
  (* after quarantine the key is a plain miss, and a fresh put heals it *)
  (match Store.find s k with
  | Ok None -> ()
  | _ -> Alcotest.fail "quarantined key not a miss");
  Store.put s k "healed";
  (match Store.find s k with
  | Ok (Some p) -> Alcotest.(check string) "healed" "healed" p
  | _ -> Alcotest.fail "healed entry not found");
  let st = Store.stats s in
  Alcotest.(check int) "quarantined counted" 1 st.Store.quarantined;
  (* a truncated header is quarantined too, with a different reason *)
  let k2 = Store.key [ "short" ] in
  Store.put s k2 "x";
  let path2 = Filename.concat dir (k2 ^ ".entry") in
  let oc = open_out_bin path2 in
  output_string oc "not the magic";
  close_out oc;
  (match Store.find s k2 with
  | Error c -> Tutil.check_contains "reason mentions magic" c.Store.reason "magic"
  | _ -> Alcotest.fail "bad magic not quarantined")

(* the store is shared by every worker: domains hammering overlapping
   keys under a tiny budget must stay consistent — every find returns
   either the true payload or a miss, never garbage *)
let test_store_contention () =
  let dir = fresh_dir "cont" in
  let payload i = Printf.sprintf "payload-%d-%s" i (String.make 200 'p') in
  let size = String.length (payload 0) + 128 in
  let s = Store.open_ ~budget_bytes:(3 * size) dir in
  let keys = Array.init 8 (fun i -> Store.key [ "k"; string_of_int i ]) in
  let bad = Atomic.make 0 in
  Fs_util.Par.iter ~jobs:4
    (fun task ->
      let i = task mod 8 in
      Store.put s keys.(i) (payload i);
      match Store.find s keys.(i) with
      | Ok (Some p) when p = payload i -> ()
      | Ok (Some _) -> Atomic.incr bad
      | Ok None -> () (* racing eviction: a miss is honest *)
      | Error _ -> Atomic.incr bad)
    (List.init 64 Fun.id);
  Alcotest.(check int) "no wrong payloads" 0 (Atomic.get bad);
  let st = Store.stats s in
  Alcotest.(check bool) "evicted under contention" true (st.Store.evictions > 0);
  Alcotest.(check bool) "budget holds" true (st.Store.bytes <= 3 * size);
  Alcotest.(check int) "nothing quarantined" 0 st.Store.quarantined;
  (* the directory agrees with the index *)
  let on_disk =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".entry")
    |> List.length
  in
  Alcotest.(check int) "index matches directory" st.Store.entries on_disk

(* ------------------------------------------------------------------ *)
(* Trace memo in-flight coalescing                                     *)

(* a workload whose build blocks on a gate: the leader can be held
   inside the memo's computation while followers pile up on the key *)
let gated_workload =
  let gate = Mutex.create () in
  let gcond = Condition.create () in
  let entered = ref 0 and released = ref false in
  let build ~nprocs ~scale:_ =
    Mutex.protect gate (fun () ->
        incr entered;
        Condition.broadcast gcond;
        while not !released do
          Condition.wait gcond gate
        done);
    Fs_ir.Validate.validate_exn
      (program ~name:"serve_gated"
         ~globals:[ ("c", arr int_t nprocs) ]
         [ fn "main" []
             [ sfor "k" (i 0) (i 10) [ bump ((v "c").%(pdv)) (i 1) ] ] ])
  in
  let w =
    {
      W.name = "serve_gated";
      description = "gated build for coalescing tests";
      lines_of_c = 0;
      versions = [ W.N ];
      dynamic = false;
      fig3_procs = 2;
      default_scale = 1;
      build;
      programmer_plan = None;
      notes = "";
    }
  in
  (w, gate, gcond, entered, released)

let test_memo_coalescing () =
  let w, gate, gcond, entered, released = gated_workload in
  Memo.clear ();
  let entries = Array.make 3 None in
  let getter i =
    Thread.create (fun () -> entries.(i) <- Some (Memo.get w ~nprocs:2 ~scale:1)) ()
  in
  let leader = getter 0 in
  Mutex.protect gate (fun () ->
      while !entered = 0 do
        Condition.wait gcond gate
      done);
  let f1 = getter 1 and f2 = getter 2 in
  Thread.delay 0.05;
  Mutex.protect gate (fun () ->
      released := true;
      Condition.broadcast gcond);
  List.iter Thread.join [ leader; f1; f2 ];
  Alcotest.(check int) "one build" 1 !entered;
  let st = Memo.stats () in
  Alcotest.(check int) "one miss" 1 st.misses;
  Alcotest.(check int) "two coalesced" 2 st.coalesced;
  (match (entries.(0), entries.(1), entries.(2)) with
   | Some a, Some b, Some c ->
     Alcotest.(check bool) "same trace" true
       (a.Memo.recorded.Falseshare.Sim.trace == b.Memo.recorded.Falseshare.Sim.trace && b.Memo.recorded.Falseshare.Sim.trace == c.Memo.recorded.Falseshare.Sim.trace)
   | _ -> Alcotest.fail "a getter returned nothing");
  Memo.clear ()

(* the same key hammered from the domain pool: one interpretation,
   bit-identical traces everywhere *)
let test_memo_coalescing_domains () =
  Memo.clear ();
  let w = Fs_workloads.Workloads.find "water" in
  let es = Fs_util.Par.map ~jobs:4 (fun _ -> Memo.get w ~nprocs:3 ~scale:1) (List.init 8 Fun.id) in
  Alcotest.(check int) "one interpretation" 1 (Memo.stats ()).misses;
  (match es with
   | first :: rest ->
     List.iter
       (fun (e : Memo.entry) ->
         Alcotest.(check bool) "physically shared trace" true
           (e.Memo.recorded.Falseshare.Sim.trace == first.Memo.recorded.Falseshare.Sim.trace))
       rest
   | [] -> Alcotest.fail "no entries");
  Memo.clear ()

(* ------------------------------------------------------------------ *)
(* The daemon, end to end                                              *)

let get_json what body =
  match Json.of_string body with
  | Ok j -> j
  | Error m -> Alcotest.fail (Printf.sprintf "%s: unparsable JSON: %s" what m)

let member_bool what j name =
  match Option.bind (Json.member name j) Json.get_bool with
  | Some b -> b
  | None -> Alcotest.fail (Printf.sprintf "%s: no boolean %S" what name)

let test_server_end_to_end () =
  let cache_dir = fresh_dir "daemon" in
  let cfg =
    { Srv.default_config with
      workers = 1;
      queue_capacity = 1;
      jobs = 2;
      cache_dir;
      debug_endpoints = true }
  in
  let t = Srv.start cfg in
  let port = Srv.port t in
  Fun.protect
    ~finally:(fun () -> Srv.stop t)
    (fun () ->
      (* healthz *)
      let s, _, body = Http.request ~port "/healthz" in
      Alcotest.(check int) "healthz status" 200 s;
      Alcotest.(check bool) "healthz ok" true
        (member_bool "healthz" (get_json "healthz" body) "ok");
      (* cold analyze: computed, stored, spans show the replay *)
      let q = {|{"workload":"water","nprocs":3,"block":64}|} in
      let s, _, cold = Http.request ~port ~body:q "/analyze" in
      Alcotest.(check int) "cold status" 200 s;
      let cj = get_json "cold" cold in
      Alcotest.(check bool) "cold not cached" false (member_bool "cold" cj "cached");
      Tutil.check_contains "cold replayed" cold "\"replay\"";
      (* warm repeat: identical result straight from the store, no replay
         child in the request's span tree *)
      let s, _, warm = Http.request ~port ~body:q "/analyze" in
      Alcotest.(check int) "warm status" 200 s;
      let wj = get_json "warm" warm in
      Alcotest.(check bool) "warm cached" true (member_bool "warm" wj "cached");
      Alcotest.(check bool) "warm has no replay span" false
        (Tutil.contains warm "\"replay\"");
      Alcotest.(check bool) "warm has no compute span" false
        (Tutil.contains warm "\"compute\"");
      Tutil.check_contains "warm probed the store" warm "store.find";
      (* the result payloads are bit-identical *)
      let result j = Json.to_string (Option.get (Json.member "result" j)) in
      Alcotest.(check string) "same result" (result cj) (result wj);
      (* chrome-trace span export on demand *)
      let s, _, chrome = Http.request ~port ~body:q "/analyze?spans=chrome" in
      Alcotest.(check int) "chrome status" 200 s;
      Tutil.check_contains "chrome fragment" chrome "traceEvents";
      (* metrics: the same independent checker the obs suite trusts *)
      let s, hdrs, text = Http.request ~port "/metrics" in
      Alcotest.(check int) "metrics status" 200 s;
      (match List.assoc_opt "content-type" hdrs with
       | Some ct -> Tutil.check_contains "exposition content type" ct "text/plain"
       | None -> Alcotest.fail "no content-type on /metrics");
      let _, _, samples = Tutil.parse_exposition "serve metrics" text in
      let counter name labels =
        int_of_string (Tutil.find_sample "serve metrics" samples name labels)
      in
      Alcotest.(check int) "three analyze requests" 3
        (counter "serve_requests_total"
           [ ("endpoint", "analyze"); ("status", "200") ]);
      Alcotest.(check bool) "cache hits moved" true
        (counter "serve_cache_hits_total" [] >= 2);
      Alcotest.(check bool) "cache misses moved" true
        (counter "serve_cache_misses_total" [] >= 1);
      Tutil.check_histogram "request latency" samples "serve_request_seconds"
        [ ("endpoint", "analyze") ];
      ignore (Tutil.find_sample "serve metrics" samples "serve_queue_depth" []);
      (* statusz: config echo and the recent-request ring *)
      let s, _, st = Http.request ~port "/statusz" in
      Alcotest.(check int) "statusz status" 200 s;
      let sj = get_json "statusz" st in
      let recent =
        Option.bind (Json.member "recent" sj) Json.get_list |> Option.get
      in
      Alcotest.(check bool) "ring remembers requests" true
        (List.length recent >= 3);
      Tutil.check_contains "statusz lists workloads" st "water";
      let memo = Option.get (Json.member "memo" sj) in
      List.iter
        (fun k ->
          Alcotest.(check bool) ("memo reports " ^ k) true
            (Option.is_some (Option.bind (Json.member k memo) Json.get_int)))
        [ "hits"; "misses"; "coalesced"; "evictions" ];
      (* client errors *)
      let s, _, b = Http.request ~port ~body:{|{"workload":"wa ter"}|} "/analyze" in
      Alcotest.(check int) "unknown workload" 400 s;
      Tutil.check_contains "suggests the name" b "water";
      let s, _, _ = Http.request ~port ~body:"{not json" "/analyze" in
      Alcotest.(check int) "bad json" 400 s;
      let s, _, _ = Http.request ~port ~meth:"GET" "/analyze" in
      Alcotest.(check int) "GET on a work endpoint" 405 s;
      let s, _, _ = Http.request ~port "/nope" in
      Alcotest.(check int) "unknown path" 404 s;
      (* a ParC source body goes through the same pipeline *)
      let src =
        {|{"source":"program tiny; shared int c[4]; void main() { c[pid] = c[pid] + 1; }","nprocs":2}|}
      in
      let s, _, b = Http.request ~port ~body:src "/analyze" in
      Alcotest.(check int) "source analyzed" 200 s;
      Tutil.check_contains "source result" b "\"result\"";
      (* and a source that fails validation is a client error *)
      let s, _, _ =
        Http.request ~port ~body:{|{"source":"shared int x;"}|} "/analyze"
      in
      Alcotest.(check int) "bad source" 400 s)

(* The program is built inside the request and its layout grows with
   scale, so a scale past the ceiling is refused before anything is
   built, and the daemon goes on serving. *)
let test_server_scale_ceiling () =
  let cache_dir = fresh_dir "scale" in
  let cfg =
    { Srv.default_config with workers = 1; queue_capacity = 4; jobs = 2; cache_dir }
  in
  let t = Srv.start cfg in
  let port = Srv.port t in
  Fun.protect
    ~finally:(fun () -> Srv.stop t)
    (fun () ->
      List.iter
        (fun body ->
          let s, _, b = Http.request ~port ~body "/analyze" in
          Alcotest.(check int) body 400 s;
          Tutil.check_contains body b "scale must be in 1..64")
        [ {|{"workload":"water","scale":1000000}|};
          {|{"workload":"water","scale":65}|};
          {|{"workload":"water","scale":0}|};
          {|{"source":"program tiny; shared int c[4]; void main() { c[pid] = 1; }","scale":1000000}|} ];
      let s, _, _ =
        Http.request ~port
          ~body:{|{"workload":"water","nprocs":2,"scale":1,"block":64}|}
          "/analyze"
      in
      Alcotest.(check int) "next request served" 200 s;
      let s, _, _ = Http.request ~port "/healthz" in
      Alcotest.(check int) "still healthy" 200 s)

(* An inline source is built as sent, so a scale sent with it could
   only split one program's results across store entries: any scale
   there is a client error, and the same source without one is served. *)
let test_server_source_scale () =
  let cache_dir = fresh_dir "srcscale" in
  let cfg =
    { Srv.default_config with workers = 1; queue_capacity = 4; jobs = 2; cache_dir }
  in
  let t = Srv.start cfg in
  let port = Srv.port t in
  let src = "program tiny; shared int c[4]; void main() { c[pid] = 1; }" in
  Fun.protect
    ~finally:(fun () -> Srv.stop t)
    (fun () ->
      let s, _, b =
        Http.request ~port
          ~body:(Printf.sprintf {|{"source":%S,"nprocs":2,"scale":2}|} src)
          "/analyze"
      in
      Alcotest.(check int) "scale with a source" 400 s;
      Tutil.check_contains "names the rule" b
        "scale applies only to a registered workload";
      let s, _, _ =
        Http.request ~port
          ~body:(Printf.sprintf {|{"source":%S,"nprocs":2}|} src)
          "/analyze"
      in
      Alcotest.(check int) "the same source without scale" 200 s;
      let s, _, _ = Http.request ~port "/healthz" in
      Alcotest.(check int) "still healthy" 200 s)

(* Dynamic workloads over HTTP: no seed is a client error, the seed is
   part of the content address (distinct seeds never alias), and the same
   seed is served from the store on repeat. *)
let test_server_sched_seed () =
  let cache_dir = fresh_dir "seed" in
  let cfg =
    { Srv.default_config with workers = 1; queue_capacity = 4; jobs = 2; cache_dir }
  in
  let t = Srv.start cfg in
  let port = Srv.port t in
  Fun.protect
    ~finally:(fun () -> Srv.stop t)
    (fun () ->
      let s, _, body =
        Http.request ~port ~body:{|{"workload":"dstress","nprocs":4}|} "/analyze"
      in
      Alcotest.(check int) "seedless dynamic is a client error" 400 s;
      Tutil.check_contains "names the missing field" body "sched_seed";
      let q seed =
        Printf.sprintf {|{"workload":"dstress","nprocs":4,"sched_seed":%d}|} seed
      in
      let s, _, cold = Http.request ~port ~body:(q 7) "/analyze" in
      Alcotest.(check int) "seeded status" 200 s;
      Alcotest.(check bool) "seeded cold" false
        (member_bool "cold" (get_json "cold" cold) "cached");
      let s, _, warm = Http.request ~port ~body:(q 7) "/analyze" in
      Alcotest.(check int) "repeat status" 200 s;
      Alcotest.(check bool) "same seed hits the store" true
        (member_bool "warm" (get_json "warm" warm) "cached");
      let s, _, other = Http.request ~port ~body:(q 8) "/analyze" in
      Alcotest.(check int) "other-seed status" 200 s;
      Alcotest.(check bool) "distinct seed is a distinct address" false
        (member_bool "other" (get_json "other" other) "cached"))

(* The daemon resolves a request as the CLI does: a field left out takes
   the CLI's default (repair tracks as many hot lines as the repair loop
   does), a value no run can take is a 400, a fault of the program
   itself is a 422 carrying its message, and the daemon goes on
   serving. *)
let test_server_request_model () =
  let cache_dir = fresh_dir "request" in
  let cfg =
    { Srv.default_config with workers = 1; queue_capacity = 4; jobs = 1; cache_dir }
  in
  let t = Srv.start cfg in
  let port = Srv.port t in
  let normal j = Json.to_string (get_json "normalize" (Json.to_string j)) in
  Fun.protect
    ~finally:(fun () -> Srv.stop t)
    (fun () ->
      let s, _, b =
        Http.request ~port
          ~body:{|{"workload":"locusroute","nprocs":4,"scale":1}|} "/repair"
      in
      Alcotest.(check int) "repair status" 200 s;
      let served = Option.get (Json.member "result" (get_json "repair" b)) in
      let w = Fs_workloads.Workloads.find "locusroute" in
      let prog = w.build ~nprocs:4 ~scale:1 in
      let plan = Falseshare.Experiments.plan_for w W.C prog ~nprocs:4 ~scale:1 in
      let recorded = Falseshare.Sim.record prog ~nprocs:4 in
      let expected =
        Fs_feedback.Repair.refine ~options:Fs_feedback.Repair.default_options
          ~recorded prog plan ~nprocs:4 ~block:128
      in
      Alcotest.(check string) "repair without top = the CLI's repair"
        (normal (Fs_feedback.Repair.to_json expected))
        (normal served);
      let s, _, b =
        Http.request ~port ~body:{|{"workload":"pverify","block":12}|} "/analyze"
      in
      Alcotest.(check int) "block 12" 400 s;
      Tutil.check_contains "block 12" b "block must be a power of two";
      List.iter
        (fun (what, body, msg) ->
          let s, _, b = Http.request ~port ~body "/analyze" in
          Alcotest.(check int) what 422 s;
          Tutil.check_contains what b msg)
        [ ( "topopt at 64 processors",
            {|{"workload":"topopt","nprocs":64,"scale":1}|},
            "run-time error: division by zero" );
          ( "out-of-bounds source",
            {|{"source":"program oob; shared int a[4]; void main() { a[pid + 10] = 1; }","nprocs":2}|},
            "run-time error: index 10 out of bounds" ) ];
      let s, _, _ =
        Http.request ~port
          ~body:{|{"workload":"pverify","nprocs":2,"scale":1}|} "/analyze"
      in
      Alcotest.(check int) "next request served" 200 s)

let test_server_backpressure () =
  let cache_dir = fresh_dir "bp" in
  let cfg =
    { Srv.default_config with
      workers = 1;
      queue_capacity = 1;
      cache_dir;
      debug_endpoints = true }
  in
  let t = Srv.start cfg in
  let port = Srv.port t in
  Fun.protect
    ~finally:(fun () -> Srv.stop t)
    (fun () ->
      (* occupy the single worker, then fill the queue of one *)
      let slow i = Thread.create (fun () -> ignore (Http.request ~port (Printf.sprintf "/sleepz?s=0.6&i=%d" i))) () in
      let a = slow 0 in
      Thread.delay 0.15;
      let b = slow 1 in
      Thread.delay 0.15;
      (* the third concurrent request finds worker busy + queue full *)
      let s, hdrs, body = Http.request ~port "/sleepz?s=0.6&i=2" in
      Alcotest.(check int) "backpressure 503" 503 s;
      Alcotest.(check (option string)) "retry-after" (Some "1")
        (List.assoc_opt "retry-after" hdrs);
      Tutil.check_contains "says why" body "queue full";
      Thread.join a;
      Thread.join b;
      (* once drained, the daemon admits work again *)
      let s, _, _ = Http.request ~port "/sleepz?s=0.01" in
      Alcotest.(check int) "admits again" 200 s;
      let _, _, samples =
        let _, _, text = Http.request ~port "/metrics" in
        Tutil.parse_exposition "bp metrics" text
      in
      Alcotest.(check string) "rejection counted" "1"
        (Tutil.find_sample "bp" samples "serve_rejected_total" []))

let test_server_quitquitquit () =
  let cache_dir = fresh_dir "quit" in
  let t = Srv.start { Srv.default_config with workers = 2; cache_dir } in
  let port = Srv.port t in
  let s, _, body = Http.request ~port ~meth:"POST" "/quitquitquit" in
  Alcotest.(check int) "quit status" 200 s;
  Tutil.check_contains "acknowledges" body "stopping";
  (* wait returns because the daemon initiated its own shutdown *)
  Srv.wait t;
  (* stop after wait is a harmless no-op *)
  Srv.stop t;
  (match Http.request ~port "/healthz" with
  | exception (Unix.Unix_error _ | Http.Bad_request _) -> ()
  | _ -> Alcotest.fail "daemon still answering after quit")

(* Two client threads against a two-worker daemon, each sending the
   forensic endpoints (hotlines, repair, blame, phases) for its own
   workload, so the workers replay concurrently: every result must equal
   the one a one-worker daemon gives when the same requests arrive one at
   a time.  State shared between the workers' replays would show up here
   as a result that depends on the interleaving. *)
let test_server_concurrent_matches_sequential () =
  let endpoints = [ "hotlines"; "repair"; "blame"; "phases" ] in
  let requests workload =
    List.map
      (fun ep ->
        (ep, Printf.sprintf {|{"workload":"%s","nprocs":4,"block":64}|} workload))
      endpoints
  in
  let ask port (ep, body) =
    let s, _, reply = Http.request ~port ~body ("/" ^ ep) in
    if s <> 200 then
      Alcotest.fail (Printf.sprintf "%s %s: status %d: %s" ep body s reply);
    Json.to_string (Option.get (Json.member "result" (get_json ep reply)))
  in
  let with_daemon workers f =
    let cfg =
      { Srv.default_config with
        workers;
        queue_capacity = 16;
        jobs = 1;
        cache_dir = fresh_dir (Printf.sprintf "conc%d" workers) }
    in
    let t = Srv.start cfg in
    Fun.protect ~finally:(fun () -> Srv.stop t) (fun () -> f (Srv.port t))
  in
  let mine = requests "pverify" and theirs = List.rev (requests "maxflow") in
  let sequential =
    with_daemon 1 (fun port -> List.map (ask port) (mine @ theirs))
  in
  let concurrent =
    with_daemon 2 (fun port ->
        let results = Array.make 2 [] in
        let client i reqs =
          Thread.create (fun () -> results.(i) <- List.map (ask port) reqs) ()
        in
        let a = client 0 mine and b = client 1 theirs in
        Thread.join a;
        Thread.join b;
        results.(0) @ results.(1))
  in
  Alcotest.(check int) "every request answered" (List.length sequential)
    (List.length concurrent);
  List.iter2
    (fun ((ep, body), seq) conc ->
      Alcotest.(check string) (Printf.sprintf "%s %s" ep body) seq conc)
    (List.combine (mine @ theirs) sequential)
    concurrent

let suite =
  [ Alcotest.test_case "http reader" `Quick test_http_reader;
    Alcotest.test_case "store key" `Quick test_store_key;
    Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store eviction" `Quick test_store_eviction;
    Alcotest.test_case "store quarantine" `Quick test_store_quarantine;
    Alcotest.test_case "store contention" `Quick test_store_contention;
    Alcotest.test_case "memo coalescing (threads)" `Quick test_memo_coalescing;
    Alcotest.test_case "memo coalescing (domains)" `Quick test_memo_coalescing_domains;
    Alcotest.test_case "daemon end to end" `Quick test_server_end_to_end;
    Alcotest.test_case "daemon sched seed" `Quick test_server_sched_seed;
    Alcotest.test_case "daemon scale ceiling" `Quick test_server_scale_ceiling;
    Alcotest.test_case "daemon source scale" `Quick test_server_source_scale;
    Alcotest.test_case "daemon request model" `Quick test_server_request_model;
    Alcotest.test_case "daemon backpressure" `Quick test_server_backpressure;
    Alcotest.test_case "daemon quitquitquit" `Quick test_server_quitquitquit;
    Alcotest.test_case "daemon concurrent forensics = sequential" `Quick
      test_server_concurrent_matches_sequential ]
