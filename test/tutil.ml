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
(* The reference listener replay: a recorded trace unpacked event by
   event and routed through [Replay.translating], the translation the
   interpreter's direct path uses, with none of the replay engine's
   packed decode.  The oracle every engine body is checked against. *)

let listener_replay trace ~layout ~listener =
  let o =
    Fs_replay.Replay.oracle layout ~vars:(Fs_trace.Cell_trace.vars trace)
  in
  Fs_trace.Cell_trace.iter
    (Fs_trace.Cell_listener.dispatch (Fs_replay.Replay.translating o listener))
    trace

let cache_replay trace ~layout ~cache =
  listener_replay trace ~layout
    ~listener:(Fs_trace.Listener.of_sink (Fs_cache.Mpcache.touch cache))
