(* Recording appends to chunks that double in size up to a cap, so it
   never copies or re-initialises what it already holds (regrowing one
   array cost more than packing the events).  [compact], or else the
   first read, joins the chunks into the one array every reader walks. *)
type t = {
  vars : string array;
  ids : (string, int) Hashtbl.t;  (* name -> variable id, built once *)
  nprocs : int;
  mutable chunks : int array list;  (* full chunks, newest first *)
  mutable cur : int array;          (* the chunk being filled *)
  mutable pos : int;                (* events in [cur] *)
  mutable len : int;
  mutable joined : int array;       (* all [len] events, when up to date *)
}

let max_chunk = 1 lsl 16

let id_table vars =
  let ids = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i name -> if not (Hashtbl.mem ids name) then Hashtbl.add ids name i) vars;
  ids

let create ~vars ~nprocs =
  if nprocs <= 0 then invalid_arg "Cell_trace.create: nprocs must be positive";
  if Array.length vars > Cell_event.max_var + 1 then
    invalid_arg "Cell_trace.create: too many variables";
  {
    vars;
    ids = id_table vars;
    nprocs;
    chunks = [];
    cur = Array.make 1024 0;
    pos = 0;
    len = 0;
    joined = [||];
  }

let vars t = t.vars
let nprocs t = t.nprocs
let length t = t.len

let var_id t name = Hashtbl.find_opt t.ids name

let next_chunk t =
  t.chunks <- t.cur :: t.chunks;
  t.cur <- Array.make (max 1024 (min max_chunk (2 * t.pos))) 0;
  t.pos <- 0

let push t packed =
  if t.pos = Array.length t.cur then next_chunk t;
  t.cur.(t.pos) <- packed;
  t.pos <- t.pos + 1;
  t.len <- t.len + 1

(* the events in one array of exactly [len], joined on the first read
   after a push; later pushes start a fresh chunk after it *)
let data t =
  if Array.length t.joined <> t.len then begin
    let joined = Array.concat (List.rev (Array.sub t.cur 0 t.pos :: t.chunks)) in
    t.chunks <- [];
    t.cur <- joined;
    t.pos <- t.len;
    t.joined <- joined
  end;
  t.joined

(* Every recorder (in memory, and the streaming writer) packs through
   the checked per-tag packers: no event variant is built per event. *)
let listener_of_push push =
  {
    Cell_listener.access =
      (fun ~proc ~write ~var ~cell ->
        push (Cell_event.pack_access ~proc ~write ~var ~cell));
    work = (fun ~proc ~amount -> push (Cell_event.pack_work ~proc ~amount));
    barrier_arrive = (fun ~proc -> push (Cell_event.pack_barrier_arrive ~proc));
    barrier_release = (fun () -> push Cell_event.tag_barrier_release);
    lock_wait =
      (fun ~proc ~var ~cell -> push (Cell_event.pack_lock_wait ~proc ~var ~cell));
    lock_grant =
      (fun ~proc ~var ~cell ~from ->
        push (Cell_event.pack_lock_grant ~proc ~var ~cell ~from));
    steal =
      (fun ~thief ~victim ~task ->
        push (Cell_event.pack_steal ~thief ~victim ~task));
  }

let recorder t = listener_of_push (push t)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Cell_trace.get: out of range";
  Cell_event.unpack (data t).(i)

let iter_packed f t = Array.iter f (data t)

let unsafe_data = data
let compact t = ignore (data t)

let iter f t = iter_packed (fun packed -> f (Cell_event.unpack packed)) t

let deliver t listener = iter (Cell_listener.dispatch listener) t

let equal a b =
  a.nprocs = b.nprocs && a.vars = b.vars && a.len = b.len && data a = data b

(* ------------------------------------------------------------------ *)
(* Disk format.  Little-endian with 64-bit header fields: delta/varint
   blocks with a trailing index.

     "FSTRACE2" | nprocs | nvars | (name length | name bytes)*
     | block_events
     | block*      each block: payload bytes
                   ++ footer (events | payload length | CRC-32 of payload)
     | index       nblocks | (payload offset | events)* per block
                   | nepochs | (global event position of each
                     Barrier_release)* | total events
     | trailer     index offset | CRC-32 of index | "FSTRIDX2"

   Blocks are located through the index (the footer trails its payload,
   so a forward scan cannot skip a block without decoding it); the
   trailer is found from the end of the file.  Each block's delta state
   resets, so any block decodes independently: a damaged block does not
   corrupt its neighbours, and an epoch seek can start at a block
   boundary.

   Per-event encoding inside a block.  The lead byte's low 3 bits are
   the event tag, with two pseudo-tags for the hot path:

     tag 6 / 7     compact read / write access: var = last var this
                   proc touched, cell = last cell there + 1 (the
                   sequential inner-loop pattern).  Bits 3-7 hold q:
                   q <= 29 encodes zigzag(proc - prev proc) inline,
                   q = 31 means an explicit proc varint follows, and
                   lead byte 0xF6 (tag 6, q = 30) escapes to a Steal
                   event: varints thief, victim, task follow and the
                   previous-proc register becomes the thief.  0xFE
                   (tag 7, q = 30) stays reserved.
     tags 0-5      standard form: bit 3 = write flag (Access),
                   bits 4-5 proc code (0 same as previous event's,
                   1 previous + 1, 2 explicit varint), bits 6-7
                   payload code — for cell-bearing tags the cell delta
                   vs the last cell of (proc, var) (0 -> +1, 1 -> +0,
                   2 -> explicit zigzag varint); for Work the amount
                   vs this proc's last (0 -> same, 2 -> explicit
                   zigzag delta).
                   Trailing fields, in order: proc varint (code 2);
                   zigzag var delta vs this proc's last var (Access /
                   Lock_wait / Lock_grant, always); cell delta varint
                   (code 2); from + 1 varint (Lock_grant); amount
                   delta varint (Work, code 2).

   Barrier_release (lead byte 0x03) does not update the previous-proc
   register; every other event does. *)

let magic = "FSTRACE2"
let magic_index = "FSTRIDX2"
let default_block_events = 1 lsl 16

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Encoder. *)

let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)
let[@inline] unzigzag u = (u lsr 1) lxor (-(u land 1))

(* Per-block delta state; reset at every block boundary so each block
   decodes independently of the others.  The payload is written straight
   into [en_bytes]; [enc_event] first makes room for [max_event_bytes],
   so the writes inside one event need no capacity checks. *)
type enc = {
  en_nprocs : int;
  en_nvars : int;
  mutable en_bytes : Bytes.t;
  mutable en_len : int;        (* payload bytes in [en_bytes] *)
  en_last_var : int array;     (* per proc: last var touched *)
  en_last_amount : int array;  (* per proc: last work amount *)
  en_last_cell : int array;    (* proc * nvars + var: last cell touched *)
  mutable en_prev_proc : int;
}

(* a lead byte and at most four varints of at most nine bytes each *)
let max_event_bytes = 1 + (4 * 9)

let[@inline] put_byte e v =
  Bytes.unsafe_set e.en_bytes e.en_len (Char.unsafe_chr v);
  e.en_len <- e.en_len + 1

let rec put_varint_long e v =
  put_byte e (0x80 lor (v land 0x7f));
  let v = v lsr 7 in
  if v < 0x80 then put_byte e v else put_varint_long e v

let[@inline] put_varint e v = if v < 0x80 then put_byte e v else put_varint_long e v

let enc_create ~nprocs ~nvars =
  {
    en_nprocs = nprocs;
    en_nvars = nvars;
    en_bytes = Bytes.create (1 lsl 16);
    en_len = 0;
    en_last_var = Array.make (max 1 nprocs) 0;
    en_last_amount = Array.make (max 1 nprocs) 0;
    en_last_cell = Array.make (max 1 (nprocs * nvars)) 0;
    en_prev_proc = 0;
  }

let enc_reset e =
  e.en_len <- 0;
  Array.fill e.en_last_var 0 (Array.length e.en_last_var) 0;
  Array.fill e.en_last_amount 0 (Array.length e.en_last_amount) 0;
  Array.fill e.en_last_cell 0 (Array.length e.en_last_cell) 0;
  e.en_prev_proc <- 0

let enc_grow e =
  let bigger = Bytes.create (2 * Bytes.length e.en_bytes) in
  Bytes.blit e.en_bytes 0 bigger 0 e.en_len;
  e.en_bytes <- bigger

let[@inline] enc_pcode e proc =
  if proc = e.en_prev_proc then 0 else if proc = e.en_prev_proc + 1 then 1 else 2

let[@inline] enc_field_guard e ~proc ~var =
  if proc >= e.en_nprocs || var >= e.en_nvars then
    invalid_arg "Cell_trace: event proc/var exceeds the trace header"

(* The field extractions below are the shifts of [Cell_event]'s packed
   layout (tag bits 0-2, write bit 3, proc bits 4-11, var bits 12-19,
   cell or amount from bit 20 / 12, a grant's from+1 at bits 20-28 and
   its cell from bit 29), written inline: the [Cell_event.packed_*]
   accessors are cross-module calls the compiler does not inline. *)
let enc_event e packed =
  if e.en_len > Bytes.length e.en_bytes - max_event_bytes then enc_grow e;
  let tag = packed land 7 in
  match tag with
  | 0 ->
    let proc = (packed lsr 4) land 0xff in
    let var = (packed lsr 12) land 0xff in
    let cell = packed lsr 20 in
    let write = packed land 8 in
    enc_field_guard e ~proc ~var;
    let ctx = (proc * e.en_nvars) + var in
    let d = cell - Array.unsafe_get e.en_last_cell ctx in
    if d = 1 && var = Array.unsafe_get e.en_last_var proc then begin
      (* compact access: the sequential inner-loop case, one byte *)
      let q = zigzag (proc - e.en_prev_proc) in
      let lead = 6 lor (write lsr 3) in
      if q <= 29 then put_byte e (lead lor (q lsl 3))
      else begin
        put_byte e (lead lor (31 lsl 3));
        put_varint e proc
      end
    end
    else begin
      let pcode = enc_pcode e proc in
      let ccode = if d = 1 then 0 else if d = 0 then 1 else 2 in
      put_byte e (write lor (pcode lsl 4) lor (ccode lsl 6));
      if pcode = 2 then put_varint e proc;
      put_varint e (zigzag (var - Array.unsafe_get e.en_last_var proc));
      if ccode = 2 then put_varint e (zigzag d)
    end;
    Array.unsafe_set e.en_last_var proc var;
    Array.unsafe_set e.en_last_cell ctx cell;
    e.en_prev_proc <- proc
  | 1 ->
    let proc = (packed lsr 4) land 0xff in
    let amount = packed lsr 12 in
    enc_field_guard e ~proc ~var:0;
    let pcode = enc_pcode e proc in
    let last = Array.unsafe_get e.en_last_amount proc in
    let acode = if amount = last then 0 else 2 in
    put_byte e (tag lor (pcode lsl 4) lor (acode lsl 6));
    if pcode = 2 then put_varint e proc;
    if acode = 2 then put_varint e (zigzag (amount - last));
    Array.unsafe_set e.en_last_amount proc amount;
    e.en_prev_proc <- proc
  | 2 ->
    let proc = (packed lsr 4) land 0xff in
    enc_field_guard e ~proc ~var:0;
    let pcode = enc_pcode e proc in
    put_byte e (tag lor (pcode lsl 4));
    if pcode = 2 then put_varint e proc;
    e.en_prev_proc <- proc
  | 3 -> put_byte e 3
  | 4 | 5 ->
    let proc = (packed lsr 4) land 0xff in
    let var = (packed lsr 12) land 0xff in
    let cell = if tag = 5 then packed lsr 29 else packed lsr 20 in
    enc_field_guard e ~proc ~var;
    let ctx = (proc * e.en_nvars) + var in
    let d = cell - Array.unsafe_get e.en_last_cell ctx in
    let pcode = enc_pcode e proc in
    let ccode = if d = 1 then 0 else if d = 0 then 1 else 2 in
    put_byte e (tag lor (pcode lsl 4) lor (ccode lsl 6));
    if pcode = 2 then put_varint e proc;
    put_varint e (zigzag (var - Array.unsafe_get e.en_last_var proc));
    if ccode = 2 then put_varint e (zigzag d);
    if tag = 5 then put_varint e ((packed lsr 20) land 0x1ff);
    Array.unsafe_set e.en_last_var proc var;
    Array.unsafe_set e.en_last_cell ctx cell;
    e.en_prev_proc <- proc
  | 6 ->
    (* steal: escape through the reserved compact-access lead byte *)
    let thief = (packed lsr 4) land 0xff in
    let victim = (packed lsr 12) land 0xff in
    let task = packed lsr 20 in
    if thief >= e.en_nprocs || victim >= e.en_nprocs then
      invalid_arg "Cell_trace: steal thief/victim exceeds the trace header";
    put_byte e 0xf6;
    put_varint e thief;
    put_varint e victim;
    put_varint e task;
    e.en_prev_proc <- thief
  | _ -> invalid_arg "Cell_trace: bad packed tag"

(* ------------------------------------------------------------------ *)
(* Streaming writer: header at create, one block flushed per
   [block_events] events, index + trailer at close — so a recording
   never has to be held in memory, the path that makes 10^8-event
   captures practical.  Written to [path ^ ".tmp"] and renamed into
   place only once every byte is out. *)

module Writer = struct
  type t = {
    oc : out_channel;
    tmp : string;
    path : string;
    block_events : int;
    enc : enc;
    b8 : Bytes.t;
    mutable in_block : int;
    mutable total : int;
    mutable blocks_rev : (int * int) list;  (* payload offset, events *)
    mutable epochs_rev : int list;
    mutable finished : bool;
  }

  let w64 t n =
    Bytes.set_int64_le t.b8 0 (Int64.of_int n);
    output_bytes t.oc t.b8

  let discard t =
    close_out_noerr t.oc;
    try Sys.remove t.tmp with Sys_error _ -> ()

  let create ?(block_events = default_block_events) ~vars ~nprocs path =
    if nprocs <= 0 || nprocs > Cell_event.max_proc + 1 then
      invalid_arg "Cell_trace.Writer.create: bad nprocs";
    if Array.length vars > Cell_event.max_var + 1 then
      invalid_arg "Cell_trace.Writer.create: too many variables";
    if block_events <= 0 then
      invalid_arg "Cell_trace.Writer.create: block_events must be positive";
    let tmp = path ^ ".tmp" in
    let t =
      {
        oc = open_out_bin tmp;
        tmp;
        path;
        block_events;
        enc = enc_create ~nprocs ~nvars:(Array.length vars);
        b8 = Bytes.create 8;
        in_block = 0;
        total = 0;
        blocks_rev = [];
        epochs_rev = [];
        finished = false;
      }
    in
    match
      output_string t.oc magic;
      w64 t nprocs;
      w64 t (Array.length vars);
      Array.iter
        (fun name ->
          w64 t (String.length name);
          output_string t.oc name)
        vars;
      w64 t block_events
    with
    | () -> t
    | exception e ->
      discard t;
      raise e

  let flush_block t =
    if t.in_block > 0 then begin
      let e = t.enc in
      t.blocks_rev <- (pos_out t.oc, t.in_block) :: t.blocks_rev;
      output t.oc e.en_bytes 0 e.en_len;
      w64 t t.in_block;
      w64 t e.en_len;
      (* the bytes are not written to while the CRC reads them *)
      let payload = Bytes.unsafe_to_string e.en_bytes in
      w64 t Fs_util.Crc32.(finish (string_sub start payload 0 e.en_len));
      t.in_block <- 0;
      enc_reset t.enc
    end

  (* tag 3 is [Barrier_release] in [Cell_event]'s layout *)
  let push t packed =
    if t.finished then invalid_arg "Cell_trace.Writer.push: closed";
    if packed land 7 = 3 then t.epochs_rev <- t.total :: t.epochs_rev;
    enc_event t.enc packed;
    t.in_block <- t.in_block + 1;
    t.total <- t.total + 1;
    if t.in_block >= t.block_events then flush_block t

  (* [push] of [data.(0 .. n - 1)] in order, one block per pass: the
     closed and block-full checks run once per block, not per event *)
  let push_array t data n =
    if t.finished then invalid_arg "Cell_trace.Writer.push: closed";
    if n < 0 || n > Array.length data then invalid_arg "Cell_trace.Writer.push_array";
    let i = ref 0 in
    while !i < n do
      let first = !i in
      let stop = min n (first + t.block_events - t.in_block) in
      let base = t.total - first in
      for k = first to stop - 1 do
        let packed = Array.unsafe_get data k in
        if packed land 7 = 3 then t.epochs_rev <- (base + k) :: t.epochs_rev;
        enc_event t.enc packed
      done;
      t.in_block <- t.in_block + (stop - first);
      t.total <- t.total + (stop - first);
      if t.in_block >= t.block_events then flush_block t;
      i := stop
    done

  let length t = t.total
  let recorder t = listener_of_push (push t)

  let write_index t =
    flush_block t;
    let ib = Buffer.create 1024 in
    let a64 n = Buffer.add_int64_le ib (Int64.of_int n) in
    let blocks = List.rev t.blocks_rev in
    a64 (List.length blocks);
    List.iter
      (fun (off, n) ->
        a64 off;
        a64 n)
      blocks;
    let epochs = List.rev t.epochs_rev in
    a64 (List.length epochs);
    List.iter a64 epochs;
    a64 t.total;
    let index = Buffer.contents ib in
    let index_off = pos_out t.oc in
    output_string t.oc index;
    w64 t index_off;
    w64 t (Fs_util.Crc32.of_string index);
    output_string t.oc magic_index

  (* [close_out], not [close_out_noerr]: a failed final flush must fail
     the close, not rename a short file into place *)
  let close t =
    if not t.finished then begin
      t.finished <- true;
      match
        write_index t;
        close_out t.oc;
        Sys.rename t.tmp t.path
      with
      | () -> ()
      | exception e ->
        discard t;
        raise e
    end

  let abort t =
    if not t.finished then begin
      t.finished <- true;
      discard t
    end
end

let write_file ?block_events t path =
  let w = Writer.create ?block_events ~vars:t.vars ~nprocs:t.nprocs path in
  match
    Writer.push_array w (data t) t.len;
    Writer.close w
  with
  | () -> ()
  | exception e ->
    Writer.abort w;
    raise e

(* ------------------------------------------------------------------ *)
(* Decoder, over bytes read from the file: the header and index at open,
   then one block (payload and footer) at a time into a scratch buffer.
   The file is read, not memory-mapped, so closing a stream releases it
   at once; a mapping would stay resident until the GC collected it. *)

(* callers keep [i] inside [s] *)
let[@inline] get_byte s i = Char.code (String.unsafe_get s i)

(* Unsigned LE 64-bit read as an OCaml int.  Well-formed files never
   carry values near 2^62; a corrupt huge value wraps negative and fails
   the range checks downstream. *)
let get64 s i = Int64.to_int (String.get_int64_le s i)

let read_varint s pos limit ~block =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= limit then corrupt "block %d: truncated varint" block;
    if !shift > 62 then corrupt "block %d: varint too long" block;
    let b = get_byte s !pos in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  !v

(* A varint whose first byte ends it, read without the general loop:
   most deltas, procs and vars fit in 7 bits. *)
let[@inline] varint s pos limit ~block =
  let p = !pos in
  if p < limit then begin
    let b = get_byte s p in
    if b < 0x80 then begin
      pos := p + 1;
      b
    end
    else read_varint s pos limit ~block
  end
  else read_varint s pos limit ~block

(* Decode [count] events of the payload at [pos, pos + plen) into
   [dst.(dst_off ..)].  Every decoded field is range-checked before it is
   shifted into place, so data that defeats the CRC still cannot produce
   packed events outside the event invariants; the unchecked array reads
   and writes below index only with a proc, var or slot already checked
   against [nprocs], [nvars] or [dst].  The shifts write the bit layout
   documented in [Cell_event] inline, as the replay walks read it: a
   packer call per event would be a cross-module call the compiler
   cannot inline. *)
let decode_payload s ~pos ~plen ~count ~block ~nprocs ~nvars dst dst_off =
  if pos < 0 || plen < 0 || pos > String.length s - plen then
    invalid_arg "Cell_trace.decode_payload: payload out of range";
  if dst_off < 0 || count < 0 || dst_off > Array.length dst - count then
    invalid_arg "Cell_trace.decode_payload: destination too small";
  let limit = pos + plen in
  let pos = ref pos in
  let last_var = Array.make (max 1 nprocs) 0 in
  let last_amount = Array.make (max 1 nprocs) 0 in
  let last_cell = Array.make (max 1 (nprocs * nvars)) 0 in
  let prev_proc = ref 0 in
  for n = dst_off to dst_off + count - 1 do
    let p = !pos in
    if p >= limit then corrupt "block %d: truncated payload" block;
    let b = get_byte s p in
    pos := p + 1;
    let tag = b land 7 in
    if tag >= 6 then begin
      let q = b lsr 3 in
      if q = 30 then begin
        (* 0xF6: steal escape (0xFE stays reserved) *)
        if tag = 7 then corrupt "block %d: reserved proc code" block;
        let thief = varint s pos limit ~block in
        let victim = varint s pos limit ~block in
        let task = varint s pos limit ~block in
        if thief >= nprocs || victim >= nprocs then
          corrupt "block %d: steal proc out of range" block;
        if task > Cell_event.max_wide_cell then
          corrupt "block %d: task out of range" block;
        Array.unsafe_set dst n
          (6 lor (thief lsl 4) lor (victim lsl 12) lor (task lsl 20));
        prev_proc := thief
      end
      else begin
        (* compact access *)
        let proc =
          if q = 31 then varint s pos limit ~block else !prev_proc + unzigzag q
        in
        if proc < 0 || proc >= nprocs then
          corrupt "block %d: proc %d out of range" block proc;
        (* a proc's last var is 0 until a standard access sets it, so in a
           trace without variables a compact access names none *)
        let var = Array.unsafe_get last_var proc in
        if var >= nvars then corrupt "block %d: var %d out of range" block var;
        let ctx = (proc * nvars) + var in
        let cell = Array.unsafe_get last_cell ctx + 1 in
        if cell > Cell_event.max_wide_cell then
          corrupt "block %d: cell out of range" block;
        Array.unsafe_set dst n
          (((tag - 6) lsl 3) lor (proc lsl 4) lor (var lsl 12) lor (cell lsl 20));
        Array.unsafe_set last_cell ctx cell;
        prev_proc := proc
      end
    end
    else if tag = 3 then begin
      if b <> 3 then corrupt "block %d: bad release lead byte" block;
      Array.unsafe_set dst n 3
    end
    else begin
      let proc =
        match (b lsr 4) land 3 with
        | 0 -> !prev_proc
        | 1 -> !prev_proc + 1
        | 2 -> varint s pos limit ~block
        | _ -> corrupt "block %d: reserved proc code" block
      in
      if proc < 0 || proc >= nprocs then
        corrupt "block %d: proc %d out of range" block proc;
      (match tag with
      | 0 | 4 | 5 ->
        let dv = unzigzag (varint s pos limit ~block) in
        let var = Array.unsafe_get last_var proc + dv in
        if var < 0 || var >= nvars then
          corrupt "block %d: var %d out of range" block var;
        let ctx = (proc * nvars) + var in
        let d =
          match b lsr 6 with
          | 0 -> 1
          | 1 -> 0
          | 2 -> unzigzag (varint s pos limit ~block)
          | _ -> corrupt "block %d: reserved cell code" block
        in
        let cell = Array.unsafe_get last_cell ctx + d in
        if cell < 0 then corrupt "block %d: cell out of range" block;
        (if tag = 5 then begin
           let from1 = varint s pos limit ~block in
           if from1 > Cell_event.max_proc + 1 then
             corrupt "block %d: bad lock source" block;
           if cell > Cell_event.max_cell then
             corrupt "block %d: cell out of range" block;
           Array.unsafe_set dst n
             (5 lor (proc lsl 4) lor (var lsl 12) lor (from1 lsl 20)
             lor (cell lsl 29))
         end
         else begin
           if cell > Cell_event.max_wide_cell then
             corrupt "block %d: cell out of range" block;
           (* Access (tag 0) and Lock_wait (tag 4) share a layout; bit 3
              of an access's lead byte is its write flag *)
           let write = if tag = 0 then b land 8 else 0 in
           Array.unsafe_set dst n
             (tag lor write lor (proc lsl 4) lor (var lsl 12) lor (cell lsl 20))
         end);
        Array.unsafe_set last_var proc var;
        Array.unsafe_set last_cell ctx cell
      | 1 ->
        let amount =
          match b lsr 6 with
          | 0 -> Array.unsafe_get last_amount proc
          | 2 ->
            Array.unsafe_get last_amount proc
            + unzigzag (varint s pos limit ~block)
          | _ -> corrupt "block %d: reserved amount code" block
        in
        if amount < 0 || amount > Cell_event.max_amount then
          corrupt "block %d: amount out of range" block;
        Array.unsafe_set dst n (1 lor (proc lsl 4) lor (amount lsl 12));
        Array.unsafe_set last_amount proc amount
      | 2 ->
        if b lsr 6 <> 0 then corrupt "block %d: bad arrive lead byte" block;
        Array.unsafe_set dst n (2 lor (proc lsl 4))
      | _ -> assert false);
      prev_proc := proc
    end
  done;
  if !pos <> limit then
    corrupt "block %d: %d trailing payload bytes" block (limit - !pos)

(* An open trace file: reads of one descriptor are serialized, so
   distinct blocks can still be decoded from different domains. *)
type source = { fd : Unix.file_descr; size : int; lock : Mutex.t }

let open_source path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  match (Unix.fstat fd).Unix.st_size with
  | size -> { fd; size; lock = Mutex.create () }
  | exception e ->
    Unix.close fd;
    raise e

(* [len] bytes of the file from [off] into [buf] *)
let read_into src off buf len =
  if off < 0 || len < 0 || off > src.size - len then corrupt "truncated trace";
  Mutex.protect src.lock (fun () ->
      ignore (Unix.lseek src.fd off Unix.SEEK_SET);
      let k = ref 0 in
      while !k < len do
        match Unix.read src.fd buf !k (len - !k) with
        | 0 -> corrupt "truncated trace"
        | n -> k := !k + n
      done)

let read_string src off len =
  let b = Bytes.create (max 0 len) in
  read_into src off b len;
  Bytes.unsafe_to_string b

(* Parsed geometry: everything but the payloads, validated. *)
type info = {
  i_nprocs : int;
  i_vars : string array;
  i_block_events : int;
  i_offsets : int array;  (* payload start per block *)
  i_lens : int array;     (* payload bytes per block *)
  i_counts : int array;   (* events per block *)
  i_starts : int array;   (* first event index per block *)
  i_epochs : int array;   (* event position of each Barrier_release *)
  i_total : int;
}

let parse src =
  let l = src.size in
  if l < 8 then corrupt "truncated trace";
  if read_string src 0 8 <> magic then corrupt "bad magic";
  if l < 8 + (3 * 8) + 24 then corrupt "truncated trace";
  let pos = ref 8 in
  let r64 () =
    let v = get64 (read_string src !pos 8) 0 in
    pos := !pos + 8;
    v
  in
  let nprocs = r64 () in
  if nprocs <= 0 || nprocs > Cell_event.max_proc + 1 then
    corrupt "bad nprocs %d" nprocs;
  let nvars = r64 () in
  if nvars < 0 || nvars > Cell_event.max_var + 1 then corrupt "bad nvars %d" nvars;
  let vars = Array.make nvars "" in
  for i = 0 to nvars - 1 do
    let n = r64 () in
    if n < 0 || n > 4096 then corrupt "bad name length %d" n;
    vars.(i) <- read_string src !pos n;
    pos := !pos + n
  done;
  let block_events = r64 () in
  if block_events <= 0 || block_events > 1 lsl 30 then
    corrupt "bad block size %d" block_events;
  let header_end = !pos in
  (* trailer *)
  let trailer = read_string src (l - 24) 24 in
  if String.sub trailer 16 8 <> magic_index then
    corrupt "bad index trailer (truncated trace?)";
  let index_off = get64 trailer 0 in
  let index_crc = get64 trailer 8 in
  if index_off < header_end || index_off > l - 24 then corrupt "bad index offset";
  let index_end = l - 24 in
  let index = read_string src index_off (index_end - index_off) in
  if Fs_util.Crc32.of_string index <> index_crc then
    corrupt "index checksum mismatch";
  pos := 0;
  let r64i () =
    if !pos + 8 > String.length index then corrupt "truncated index";
    let v = get64 index !pos in
    pos := !pos + 8;
    v
  in
  let nblocks = r64i () in
  if nblocks < 0 || nblocks > String.length index / 16 then
    corrupt "bad block count %d" nblocks;
  let offsets = Array.make nblocks 0 in
  let counts = Array.make nblocks 0 in
  for k = 0 to nblocks - 1 do
    offsets.(k) <- r64i ();
    counts.(k) <- r64i ()
  done;
  let nepochs = r64i () in
  if nepochs < 0 || nepochs > String.length index / 8 then
    corrupt "bad epoch count %d" nepochs;
  let epochs = Array.make nepochs 0 in
  for k = 0 to nepochs - 1 do
    epochs.(k) <- r64i ()
  done;
  let total = r64i () in
  if !pos <> String.length index then corrupt "index has trailing bytes";
  if total < 0 then corrupt "bad event count %d" total;
  let lens = Array.make nblocks 0 in
  let starts = Array.make nblocks 0 in
  let sum = ref 0 in
  for k = 0 to nblocks - 1 do
    let off = offsets.(k) in
    let expect = if k = 0 then header_end else offsets.(k - 1) in
    if off < expect || off > index_off then corrupt "block %d: bad offset" k;
    let next = if k + 1 < nblocks then offsets.(k + 1) else index_off in
    let plen = next - off - 24 in
    if plen < 0 then corrupt "block %d: bad extent" k;
    lens.(k) <- plen;
    starts.(k) <- !sum;
    let c = counts.(k) in
    if c <= 0 || c > block_events then
      corrupt "block %d: bad event count %d" k c;
    sum := !sum + c
  done;
  if nblocks > 0 && offsets.(0) <> header_end then corrupt "block 0: bad offset";
  if nblocks = 0 && index_off <> header_end then corrupt "orphan bytes before index";
  if total <> !sum then
    corrupt "event count mismatch: index says %d, blocks hold %d" total !sum;
  let last = ref (-1) in
  Array.iter
    (fun e ->
      if e <= !last || e >= total then corrupt "bad epoch position %d" e;
      last := e)
    epochs;
  {
    i_nprocs = nprocs;
    i_vars = vars;
    i_block_events = block_events;
    i_offsets = offsets;
    i_lens = lens;
    i_counts = counts;
    i_starts = starts;
    i_epochs = epochs;
    i_total = total;
  }

(* Read block [k] (payload and footer) into [scratch], grown as needed,
   verify the footer against the index and the payload's CRC, then decode
   the payload into [dst] at [dst_off].  Raises [Corrupt] naming the
   block. *)
let decode_into src info scratch k dst dst_off =
  let plen = info.i_lens.(k) in
  let count = info.i_counts.(k) in
  if Bytes.length !scratch < plen + 24 then scratch := Bytes.create (plen + 24);
  read_into src info.i_offsets.(k) !scratch (plen + 24);
  (* not written to again while this string is in use *)
  let b = Bytes.unsafe_to_string !scratch in
  if get64 b plen <> count || get64 b (plen + 8) <> plen then
    corrupt "block %d: footer disagrees with index" k;
  if Fs_util.Crc32.(finish (string_sub start b 0 plen)) <> get64 b (plen + 16) then
    corrupt "block %d: checksum mismatch" k;
  decode_payload b ~pos:0 ~plen ~count ~block:k ~nprocs:info.i_nprocs
    ~nvars:(Array.length info.i_vars) dst dst_off

(* ------------------------------------------------------------------ *)
(* Streaming reader: a sequence of blocks, each CRC-checked and decoded
   on demand into a caller buffer, so peak heap is bounded by the block
   size however long the trace. *)

module Stream = struct
  type nonrec t = { src : source; info : info; mutable closed : bool }

  let open_file path =
    let src = open_source path in
    match parse src with
    | info -> { src; info; closed = false }
    | exception e ->
      Unix.close src.fd;
      raise e

  let vars t = t.info.i_vars
  let nprocs t = t.info.i_nprocs
  let length t = t.info.i_total
  let byte_size t = t.src.size
  let nblocks t = Array.length t.info.i_offsets
  let max_block_events t = max 1 t.info.i_block_events
  let epochs t = Array.copy t.info.i_epochs

  let check_block what t k buf =
    if t.closed then invalid_arg ("Cell_trace.Stream." ^ what ^ ": closed");
    if k < 0 || k >= nblocks t then
      invalid_arg "Cell_trace.Stream.decode_block: block out of range";
    let n = t.info.i_counts.(k) in
    if Array.length buf < n then
      invalid_arg "Cell_trace.Stream.decode_block: buffer too small";
    n

  (* scratch per call, so calls from different domains do not share it *)
  let decode_block t k buf =
    let n = check_block "decode_block" t k buf in
    decode_into t.src t.info (ref Bytes.empty) k buf 0;
    n

  let iter_chunks f t =
    if t.closed then invalid_arg "Cell_trace.Stream.iter_chunks: closed";
    let nb = nblocks t in
    if nb > 0 then begin
      let buf = Array.make (max_block_events t) 0 in
      let scratch = ref Bytes.empty in
      for k = 0 to nb - 1 do
        let n = check_block "iter_chunks" t k buf in
        decode_into t.src t.info scratch k buf 0;
        f buf n
      done
    end

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Unix.close t.src.fd
    end
end

let of_file_stream = Stream.open_file

let read_file path =
  let s = Stream.open_file path in
  Fun.protect
    ~finally:(fun () -> Stream.close s)
    (fun () ->
      let info = s.Stream.info in
      let data = Array.make info.i_total 0 in
      let scratch = ref Bytes.empty in
      Array.iteri
        (fun k start -> decode_into s.Stream.src info scratch k data start)
        info.i_starts;
      {
        vars = info.i_vars;
        ids = id_table info.i_vars;
        nprocs = info.i_nprocs;
        chunks = [];
        cur = data;
        pos = info.i_total;
        len = info.i_total;
        joined = data;
      })
