(* Program-level fuzzing: generate random (but well-formed, terminating,
   barrier-balanced) ParC programs and check the end-to-end properties
   that hold for *every* program, not just the curated workloads:

   - the program validates and executes without runtime errors;
   - the compiler's plan validates and its layout has no overlapping
     addresses;
   - every layout — default, compiler-planned, and randomly planned —
     produces bit-identical final shared memory.  The scheduler is
     layout-independent, so even racy programs must agree exactly: any
     difference would mean a transformation changed program semantics;
   - the concrete syntax round-trips;
   - the replay engine's counts equal the reference coherence model's
     (Legacy_cache) on generated programs and on the workloads, under
     random plans, block sizes, associativities and cache sizes. *)

open Fs_ir
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Layout = Fs_layout.Layout
module Plan = Fs_layout.Plan
module T = Fs_transform.Transform

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

(* Globals available to generated programs.  pv has a per-process shape so
   the compiler has something to find; every other index goes through the
   safe-index wrapper below. *)
let nprocs = 4

let globals =
  [ ("s0", Dsl.int_t);
    ("s1", Dsl.int_t);
    ("a8", Dsl.arr Dsl.int_t 8);
    ("m46", Dsl.arr2 Dsl.int_t 4 6);
    ("pv", Dsl.arr Dsl.int_t nprocs);
    ("lk", Dsl.lock_t) ]

(* clamp any int expression into [0, n) *)
let safe_idx e n = Dsl.(((e %% i n) +% i n) %% i n)

let np_expr = Dsl.nprocs

let gen_expr privs =
  let open QCheck.Gen in
  let open Dsl in
  let leaf =
    frequency
      [ (3, map i (int_range (-9) 9));
        (2, return pdv);
        (1, return np_expr);
        (if privs = [] then (0, return (i 0)) else (3, map p (oneofl privs)));
        (2,
         oneof
           [ return (ld (v "s0"));
             return (ld (v "s1"));
             return (ld (v "pv").%(pdv)) ]) ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [ (3, leaf);
            ( 4,
              let op = oneofl [ ( +% ); ( -% ); ( *% ); min_; max_ ] in
              map3 (fun f a b -> f a b) op (self (depth - 1)) (self (depth - 1)) );
            ( 1,
              map (fun a -> a /% i 3) (self (depth - 1)) );
            ( 1,
              map2
                (fun a b -> ld (v "a8").%(safe_idx (a +% b) 8))
                (self (depth - 1)) (self (depth - 1)) ) ])
    3

let gen_lvalue privs =
  let open QCheck.Gen in
  let open Dsl in
  let* e = gen_expr privs in
  oneofl
    [ v "s0";
      v "s1";
      (v "a8").%(safe_idx e 8);
      (v "m46").%(safe_idx e 4).%(safe_idx (e +% i 1) 6);
      (v "pv").%(pdv) ]

(* Statements; [privs] is the set of declared privates in scope. *)
let rec gen_stmts privs depth budget =
  let open QCheck.Gen in
  if budget <= 0 then return []
  else
    let* n = int_range 1 3 in
    let rec seq privs k acc =
      if k <= 0 then return (List.rev acc)
      else
        let* s, privs' = gen_stmt privs depth in
        seq privs' (k - 1) (s :: acc)
    in
    seq privs n []

and gen_stmt privs depth =
  let open QCheck.Gen in
  let open Dsl in
  let store =
    let* lv = gen_lvalue privs in
    let* e = gen_expr privs in
    return (lv <-- e, privs)
  in
  let declare =
    let name = Printf.sprintf "t%d" (List.length privs) in
    let* e = gen_expr privs in
    return (decl name e, name :: privs)
  in
  let assign =
    if privs = [] then store
    else
      let* name = oneofl privs in
      let* e = gen_expr privs in
      return (set name e, privs)
  in
  let loop =
    if depth <= 0 then store
    else
      let vn = Printf.sprintf "k%d" depth in
      let* hi = int_range 1 4 in
      let* body = gen_stmts (vn :: privs) (depth - 1) 2 in
      return (sfor vn (i 0) (i hi) body, privs)
  in
  let cond =
    if depth <= 0 then store
    else
      let* c = gen_expr privs in
      let* b1 = gen_stmts privs (depth - 1) 2 in
      let* b2 = gen_stmts privs (depth - 1) 1 in
      return (sif (c >% i 0) b1 b2, privs)
  in
  let critical =
    let* lv = gen_lvalue privs in
    let* e = gen_expr privs in
    return
      ( sif (i 1) [ lock (v "lk"); (lv <-- e); unlock (v "lk") ] [],
        privs )
  in
  frequency
    [ (4, store); (2, declare); (2, assign); (2, loop); (2, cond); (1, critical) ]

let gen_program =
  let open QCheck.Gen in
  (* top-level: a few phases separated by barriers *)
  let* nphases = int_range 1 3 in
  let rec phases k acc =
    if k <= 0 then return (List.rev acc)
    else
      let* body = gen_stmts [] 2 3 in
      phases (k - 1) ((body @ [ Ast.Barrier ]) :: acc)
  in
  let* ps = phases nphases [] in
  let prog =
    Dsl.program ~name:"fuzz" ~globals
      [ Dsl.fn "main" [] (List.concat ps) ]
  in
  return prog

let arbitrary_program =
  QCheck.make ~print:Pp.program_to_string gen_program

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let final_memory prog plan =
  let layout = Layout.realize prog plan ~block:64 in
  let r = Tutil.run_to_sink prog ~nprocs ~layout ~sink:Fs_trace.Sink.null in
  List.map
    (fun (name, _) ->
      let values = Hashtbl.find r.Interp.store name in
      Array.to_list values)
    prog.Ast.globals

let test_fuzz_transparency =
  QCheck.Test.make ~name:"random programs: every layout preserves semantics"
    ~count:150 arbitrary_program
    (fun prog ->
      match Validate.check prog with
      | Error errs -> QCheck.Test.fail_reportf "invalid: %s" (String.concat ";" errs)
      | Ok () ->
        let base = final_memory prog [] in
        let report = T.plan prog ~nprocs in
        Plan.validate prog report.T.plan;
        let cplan_mem = final_memory prog report.T.plan in
        let manual =
          [ Plan.Group_transpose { vars = [ "pv" ]; pdv_axis = 0 };
            Plan.Pad_align { var = "a8"; element = true };
            Plan.Regroup { var = "m46"; ways = 2; chunked = true };
            Plan.Pad_locks ]
        in
        let manual_mem = final_memory prog manual in
        base = cplan_mem && base = manual_mem)

let test_fuzz_layout_disjoint =
  QCheck.Test.make ~name:"random programs: compiler layouts never overlap"
    ~count:100 arbitrary_program
    (fun prog ->
      let report = T.plan prog ~nprocs in
      List.for_all
        (fun block ->
          match Layout.check_disjoint (Layout.realize prog report.T.plan ~block) with
          | Ok () -> true
          | Error _ -> false)
        [ 16; 128 ])

let test_fuzz_parse_roundtrip =
  QCheck.Test.make ~name:"random programs: concrete syntax round-trips"
    ~count:100 arbitrary_program
    (fun prog ->
      let s1 = Pp.program_to_string prog in
      let s2 = Pp.program_to_string (Fs_parc.Parser.parse s1) in
      s1 = s2)

(* ------------------------------------------------------------------ *)
(* The engine against the reference model                              *)

module C = Fs_cache.Mpcache
module Ws = Fs_workloads.Workloads

type source = Workload of int | Generated of Ast.program

(* [Subset keep]: the compiler plan's actions whose index [keep] marks *)
type plan_draw = N | Cplan | Subset of bool list

type draw = {
  source : source;
  plan_draw : plan_draw;
  block : int;
  assoc : int;
  cache_bytes : int;
}

let blocks = [| 16; 64; 128 |]
let assocs = [| 1; 4 |]

(* 3 KB makes the set count a non-power of two (6, 12 or 48 sets with
   four ways, 24, 48 or 192 with one): the engine's [mod] set index
   rather than its mask *)
let cache_sizes = [| 1024; 3 * 1024; 32 * 1024 |]

let workloads = Array.of_list Ws.every

(* recordings and compiler plans: each workload's once, at scale 1 *)
let recording_of =
  let memo = Hashtbl.create 16 in
  fun source ->
    let compute prog sched =
      let trace, _ = Interp.record ?sched prog ~nprocs in
      (prog, trace, (T.plan prog ~nprocs).T.plan)
    in
    match source with
    | Generated prog -> compute prog None
    | Workload i -> (
      match Hashtbl.find_opt memo i with
      | Some r -> r
      | None ->
        let w = workloads.(i) in
        let sched =
          if w.Fs_workloads.Workload.dynamic then
            Some (Fs_sched.Sched.seeded 1)
          else None
        in
        let r = compute (w.build ~nprocs ~scale:1) sched in
        Hashtbl.add memo i r;
        r)

let plan_of cplan = function
  | N -> Plan.empty
  | Cplan -> cplan
  | Subset keep ->
    List.filteri
      (fun k _ -> match List.nth_opt keep k with Some b -> b | None -> false)
      cplan

let index_of a x =
  let rec go k = if a.(k) = x then k else go (k + 1) in
  go 0

let gen_draw =
  let open QCheck.Gen in
  let* source =
    frequency
      [ (3, map (fun i -> Workload i) (int_bound (Array.length workloads - 1)));
        (2, map (fun p -> Generated p) gen_program) ]
  in
  let* plan_draw =
    frequency
      [ (1, return N); (1, return Cplan);
        (2, map (fun keep -> Subset keep) (list_repeat 24 bool)) ]
  in
  let* block = oneofa blocks in
  let* assoc = oneofa assocs in
  let* cache_bytes = oneofa cache_sizes in
  return { source; plan_draw; block; assoc; cache_bytes }

(* toward the first workload, the empty plan, fewer kept actions and
   the first entry of each dimension's table *)
let shrink_draw d yield =
  let shrink_index a x f =
    QCheck.Shrink.int (index_of a x) (fun k -> yield (f a.(k)))
  in
  (match d.source with
   | Workload i -> QCheck.Shrink.int i (fun j -> yield { d with source = Workload j })
   | Generated _ -> ());
  (match d.plan_draw with
   | N -> ()
   | Cplan -> yield { d with plan_draw = N }
   | Subset keep ->
     yield { d with plan_draw = N };
     List.iteri
       (fun k b ->
         if b then
           yield
             { d with plan_draw = Subset (List.mapi (fun j b -> b && j <> k) keep) })
       keep);
  shrink_index blocks d.block (fun block -> { d with block });
  shrink_index assocs d.assoc (fun assoc -> { d with assoc });
  shrink_index cache_sizes d.cache_bytes (fun cache_bytes -> { d with cache_bytes })

let print_draw d =
  let prog, _, cplan = recording_of d.source in
  Printf.sprintf "%s\nplan: %s\nblock %d B, %d-way, %d B per cache"
    (match d.source with
     | Workload i -> workloads.(i).Fs_workloads.Workload.name
     | Generated _ -> Pp.program_to_string prog)
    (Format.asprintf "%a" Plan.pp (plan_of cplan d.plan_draw))
    d.block d.assoc d.cache_bytes

let test_engine_vs_reference =
  QCheck.Test.make ~name:"engine counts = reference cache model" ~count:400
    (QCheck.make ~print:print_draw ~shrink:shrink_draw gen_draw)
    (fun d ->
      let prog, trace, cplan = recording_of d.source in
      let layout = Layout.realize prog (plan_of cplan d.plan_draw) ~block:d.block in
      let config =
        { C.nprocs; block = d.block; assoc = d.assoc; cache_bytes = d.cache_bytes }
      in
      let cache = C.create ~max_addr:(Layout.size layout) config in
      let run = Fs_replay.Replay.simulate trace ~layout ~cache in
      let reference = Legacy_cache.create config in
      Tutil.listener_replay trace ~layout
        ~listener:(Fs_trace.Listener.of_sink (Legacy_cache.sink reference));
      run.Fs_replay.Replay.counts = Legacy_cache.counts reference
      && C.proc_counts cache = Legacy_cache.proc_counts reference)

let suite =
  [ QCheck_alcotest.to_alcotest test_fuzz_transparency;
    QCheck_alcotest.to_alcotest test_fuzz_layout_disjoint;
    QCheck_alcotest.to_alcotest test_fuzz_parse_roundtrip;
    QCheck_alcotest.to_alcotest test_engine_vs_reference ]
