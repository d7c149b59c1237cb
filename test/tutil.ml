(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec go i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else go (i + 1)
    in
    go 0

let check_contains what haystack needle =
  if not (contains haystack needle) then
    Alcotest.fail (Printf.sprintf "%s: expected %S in %S" what needle haystack)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition: a hand-written checker of the format's
   structural rules, independent of the renderer — it re-parses the text
   from scratch, so a renderer bug can't hide behind its own output.
   Shared between the obs suite (registry render) and the serve suite
   (the daemon's GET /metrics). *)

type parsed_sample = { ps_name : string; ps_labels : (string * string) list;
                       ps_value : string }

let parse_exposition what text =
  let fail msg = Alcotest.fail (Printf.sprintf "%s: %s" what msg) in
  let types = Hashtbl.create 8 in
  let helps = Hashtbl.create 8 in
  let samples = ref [] in
  let parse_labels s =
    (* k1="v1",k2="v2" — label values in these tests contain no escapes *)
    if s = "" then []
    else
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let n = String.length v in
            if n < 2 || v.[0] <> '"' || v.[n - 1] <> '"' then
              fail ("unquoted label value in " ^ s);
            (k, String.sub v 1 (n - 2))
          | None -> fail ("bad label pair " ^ kv))
        (String.split_on_char ',' s)
  in
  (* the metric a sample line belongs to: its own name, or — for the
     histogram series — the name with _bucket/_sum/_count stripped *)
  let base_of name =
    if Hashtbl.mem types name then name
    else
      let try_suffix sfx =
        let n = String.length name and m = String.length sfx in
        if n > m && String.sub name (n - m) m = sfx then begin
          let b = String.sub name 0 (n - m) in
          if Hashtbl.find_opt types b = Some "histogram" then Some b else None
        end
        else None
      in
      match List.find_map try_suffix [ "_bucket"; "_sum"; "_count" ] with
      | Some b -> b
      | None -> fail ("sample " ^ name ^ " has no preceding # TYPE")
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line > 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ :: _ ->
          if Hashtbl.mem types name then fail ("HELP after TYPE for " ^ name);
          Hashtbl.replace helps name ()
        | "#" :: "TYPE" :: name :: [ ty ] ->
          if not (List.mem ty [ "counter"; "gauge"; "histogram" ]) then
            fail ("unknown type " ^ ty);
          if Hashtbl.mem types name then fail ("duplicate TYPE for " ^ name);
          Hashtbl.replace types name ty
        | _ -> fail ("malformed comment line: " ^ line)
      end
      else begin
        match String.rindex_opt line ' ' with
        | None -> fail ("malformed sample line: " ^ line)
        | Some sp ->
          let head = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          let name, labels =
            match String.index_opt head '{' with
            | None -> (head, [])
            | Some lb ->
              if head.[String.length head - 1] <> '}' then
                fail ("unterminated label set: " ^ head);
              ( String.sub head 0 lb,
                parse_labels
                  (String.sub head (lb + 1) (String.length head - lb - 2)) )
          in
          ignore (base_of name);
          samples := { ps_name = name; ps_labels = labels; ps_value = value }
                     :: !samples
      end)
    (String.split_on_char '\n' text);
  (types, helps, List.rev !samples)

let find_sample what samples name labels =
  match
    List.find_opt
      (fun s ->
        s.ps_name = name
        && List.sort compare s.ps_labels = List.sort compare labels)
      samples
  with
  | Some s -> s.ps_value
  | None ->
    Alcotest.fail
      (Printf.sprintf "%s: no sample %s{%s}" what name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)))

(* the structural rules of one histogram's series under one label set *)
let check_histogram what samples name labels =
  let le_of s = List.assoc "le" s.ps_labels in
  let others s = List.remove_assoc "le" s.ps_labels in
  let buckets =
    List.filter
      (fun s ->
        s.ps_name = name ^ "_bucket"
        && List.mem_assoc "le" s.ps_labels
        && List.sort compare (others s) = List.sort compare labels)
      samples
  in
  if buckets = [] then Alcotest.fail (what ^ ": no _bucket series");
  let les = List.map le_of buckets in
  (match List.rev les with
   | "+Inf" :: _ -> ()
   | _ -> Alcotest.fail (what ^ ": last bucket is not le=\"+Inf\""));
  let numeric =
    List.map
      (fun le -> if le = "+Inf" then infinity else float_of_string le)
      les
  in
  if List.sort compare numeric <> numeric then
    Alcotest.fail (what ^ ": bucket bounds not ascending");
  let cums = List.map (fun s -> int_of_string s.ps_value) buckets in
  if List.sort compare cums <> cums then
    Alcotest.fail (what ^ ": cumulative counts decrease");
  let count =
    int_of_string (find_sample what samples (name ^ "_count") labels)
  in
  Alcotest.(check int) (what ^ ": +Inf bucket = _count") count
    (List.nth cums (List.length cums - 1));
  ignore (float_of_string (find_sample what samples (name ^ "_sum") labels))

(* ------------------------------------------------------------------ *)
(* The cell-level twin of [Fs_trace.Listener]: one closure per event
   kind, naming locations as (var id, cell id) rather than byte
   addresses.  The reference paths below deliver every event through
   one, unpacked; the replay engine reads the packed events instead. *)

module Cell_listener = struct
  type t = {
    access : proc:int -> write:bool -> var:int -> cell:int -> unit;
    work : proc:int -> amount:int -> unit;
    barrier_arrive : proc:int -> unit;
    barrier_release : unit -> unit;
    lock_wait : proc:int -> var:int -> cell:int -> unit;
    lock_grant : proc:int -> var:int -> cell:int -> from:int -> unit;
    steal : thief:int -> victim:int -> task:int -> unit;
  }

  let dispatch t = function
    | Fs_trace.Cell_event.Access { proc; write; var; cell } ->
      t.access ~proc ~write ~var ~cell
    | Work { proc; amount } -> t.work ~proc ~amount
    | Barrier_arrive { proc } -> t.barrier_arrive ~proc
    | Barrier_release -> t.barrier_release ()
    | Lock_wait { proc; var; cell } -> t.lock_wait ~proc ~var ~cell
    | Lock_grant { proc; var; cell; from } -> t.lock_grant ~proc ~var ~cell ~from
    | Steal { thief; victim; task } -> t.steal ~thief ~victim ~task
end

(* The translation of a cell stream to an address stream under one
   layout: an indirection layout interposes a pointer cell, whose read
   comes before the data reference it redirects.  Steals are scheduling
   annotations with no address under any layout, so they are dropped;
   the deque traffic they caused is in the stream as accesses. *)
let translating layout ~vars (l : Fs_trace.Listener.t) : Cell_listener.t =
  let vls =
    Array.map
      (fun name ->
        match Fs_layout.Layout.lookup layout name with
        | vl -> vl
        | exception Not_found ->
          invalid_arg ("Tutil.translating: layout has no variable " ^ name))
      vars
  in
  let addr var cell = vls.(var).Fs_layout.Layout.addr.(cell) in
  {
    access =
      (fun ~proc ~write ~var ~cell ->
        let extra = vls.(var).Fs_layout.Layout.extra in
        if Array.length extra > 0 && extra.(cell) >= 0 then
          l.access ~proc ~write:false ~addr:extra.(cell);
        l.access ~proc ~write ~addr:(addr var cell));
    work = l.work;
    barrier_arrive = l.barrier_arrive;
    barrier_release = l.barrier_release;
    lock_wait = (fun ~proc ~var ~cell -> l.lock_wait ~proc ~addr:(addr var cell));
    lock_grant =
      (fun ~proc ~var ~cell ~from ->
        l.lock_grant ~proc ~addr:(addr var cell) ~from);
    steal = (fun ~thief:_ ~victim:_ ~task:_ -> ());
  }

(* The direct-interpret path: one interpretation whose events are
   translated through the layout as they are produced, each unpacked
   and dispatched.  Replaying a recorded trace must deliver exactly this
   stream: the "replay = reinterpret" oracle. *)

let run ?max_steps ?sched prog ~nprocs ~layout ~listener =
  let cells = translating layout ~vars:(Fs_interp.Interp.vars prog) listener in
  Fs_interp.Interp.run_cells ?max_steps ?sched prog ~nprocs ~push:(fun packed ->
      Cell_listener.dispatch cells (Fs_trace.Cell_event.unpack packed))

let run_to_sink ?max_steps ?sched prog ~nprocs ~layout ~sink =
  run ?max_steps ?sched prog ~nprocs ~layout
    ~listener:(Fs_trace.Listener.of_sink sink)

(* The reference listener replay: a recorded trace unpacked event by
   event and routed through [translating], the translation the direct
   path above uses, with none of the replay engine's packed decode.  The
   oracle every engine body is checked against. *)

let listener_replay trace ~layout ~listener =
  Fs_trace.Cell_trace.iter
    (Cell_listener.dispatch
       (translating layout ~vars:(Fs_trace.Cell_trace.vars trace) listener))
    trace

let cache_replay trace ~layout ~cache =
  listener_replay trace ~layout
    ~listener:(Fs_trace.Listener.of_sink (Fs_cache.Mpcache.touch cache))
