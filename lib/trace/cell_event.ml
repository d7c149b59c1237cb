type t =
  | Access of { proc : int; write : bool; var : int; cell : int }
  | Work of { proc : int; amount : int }
  | Barrier_arrive of { proc : int }
  | Barrier_release
  | Lock_wait of { proc : int; var : int; cell : int }
  | Lock_grant of { proc : int; var : int; cell : int; from : int }
  | Steal of { thief : int; victim : int; task : int }

(* Packed representation, one event per OCaml int:

   bits 0-2   tag
   bits 3     write flag            (Access)
   bits 4-11  proc                  (all but Barrier_release)
   bits 12-19 var                   (Access, Lock_wait, Lock_grant)
   bits 20+   cell / amount payload (Lock_grant: bits 20-28 carry from+1,
                                     which spans [0,256], the cell starts
                                     at bit 29)

   Simulated processor counts stay below 256 and programs declare far
   fewer than 256 globals, so the 8-bit fields are comfortable; cells and
   work amounts get 34+ bits. *)

let max_proc = 255
let max_var = 255
let max_cell = (1 lsl 34) - 1
let max_wide_cell = (1 lsl 43) - 1
let max_amount = (1 lsl 51) - 1

let tag_access = 0
let tag_work = 1
let tag_barrier_arrive = 2
let tag_barrier_release = 3
let tag_lock_wait = 4
let tag_lock_grant = 5

(* Steal reuses the Access field slots: the thief rides in the proc
   field, the victim in the var field, the task id in the cell payload —
   so the generic proc/var extractors keep working on it. *)
let tag_steal = 6

let out_of_range what v limit =
  invalid_arg (Printf.sprintf "Cell_event.pack: %s %d out of range [0,%d]" what v limit)

let[@inline] check what v limit = if v < 0 || v > limit then out_of_range what v limit

(* Checked packers, one per tag: the recorders call these straight from
   their listener callbacks, so no event variant is built per event. *)
let pack_access ~proc ~write ~var ~cell =
  check "proc" proc max_proc;
  check "var" var max_var;
  check "cell" cell max_wide_cell;
  tag_access
  lor ((if write then 1 else 0) lsl 3)
  lor (proc lsl 4) lor (var lsl 12) lor (cell lsl 20)

let pack_work ~proc ~amount =
  check "proc" proc max_proc;
  check "amount" amount max_amount;
  tag_work lor (proc lsl 4) lor (amount lsl 12)

let pack_barrier_arrive ~proc =
  check "proc" proc max_proc;
  tag_barrier_arrive lor (proc lsl 4)

let pack_lock_wait ~proc ~var ~cell =
  check "proc" proc max_proc;
  check "var" var max_var;
  check "cell" cell max_wide_cell;
  tag_lock_wait lor (proc lsl 4) lor (var lsl 12) lor (cell lsl 20)

let pack_lock_grant ~proc ~var ~cell ~from =
  check "proc" proc max_proc;
  check "var" var max_var;
  check "from+1" (from + 1) (max_proc + 1);
  check "cell" cell max_cell;
  tag_lock_grant lor (proc lsl 4) lor (var lsl 12)
  lor ((from + 1) lsl 20) lor (cell lsl 29)

let pack_steal ~thief ~victim ~task =
  check "thief" thief max_proc;
  check "victim" victim max_proc;
  check "task" task max_wide_cell;
  tag_steal lor (thief lsl 4) lor (victim lsl 12) lor (task lsl 20)

let pack = function
  | Access { proc; write; var; cell } -> pack_access ~proc ~write ~var ~cell
  | Work { proc; amount } -> pack_work ~proc ~amount
  | Barrier_arrive { proc } -> pack_barrier_arrive ~proc
  | Barrier_release -> tag_barrier_release
  | Lock_wait { proc; var; cell } -> pack_lock_wait ~proc ~var ~cell
  | Lock_grant { proc; var; cell; from } -> pack_lock_grant ~proc ~var ~cell ~from
  | Steal { thief; victim; task } -> pack_steal ~thief ~victim ~task

(* Field extractors over the packed form, for consumers that cannot
   afford [unpack]'s variant allocation per event (the fused replay
   loop).  They must mirror the bit layout above exactly; the pack/unpack
   round-trip property test pins them down. *)
let[@inline] packed_tag packed = packed land 7
let[@inline] packed_is_access packed = packed land 7 = tag_access
let[@inline] packed_proc packed = (packed lsr 4) land 0xff
let[@inline] packed_var packed = (packed lsr 12) land 0xff
let[@inline] packed_write packed = packed land 8 <> 0
let[@inline] packed_cell packed = packed lsr 20
let[@inline] packed_amount packed = packed lsr 12
let[@inline] packed_grant_from1 packed = (packed lsr 20) land 0x1ff
let[@inline] packed_grant_cell packed = packed lsr 29

let unpack packed =
  let proc = (packed lsr 4) land 0xff in
  let var = (packed lsr 12) land 0xff in
  match packed land 7 with
  | 0 -> Access { proc; write = packed land 8 <> 0; var; cell = packed lsr 20 }
  | 1 -> Work { proc; amount = packed lsr 12 }
  | 2 -> Barrier_arrive { proc }
  | 3 -> Barrier_release
  | 4 -> Lock_wait { proc; var; cell = packed lsr 20 }
  | 5 ->
    Lock_grant
      { proc; var; from = ((packed lsr 20) land 0x1ff) - 1; cell = packed lsr 29 }
  | 6 -> Steal { thief = proc; victim = var; task = packed lsr 20 }
  | t -> invalid_arg (Printf.sprintf "Cell_event.unpack: bad tag %d" t)

let pp fmt = function
  | Access { proc; write; var; cell } ->
    Format.fprintf fmt "P%d %s v%d[%d]" proc (if write then "W" else "R") var cell
  | Work { proc; amount } -> Format.fprintf fmt "P%d work %d" proc amount
  | Barrier_arrive { proc } -> Format.fprintf fmt "P%d barrier" proc
  | Barrier_release -> Format.fprintf fmt "barrier release"
  | Lock_wait { proc; var; cell } ->
    Format.fprintf fmt "P%d lock-wait v%d[%d]" proc var cell
  | Lock_grant { proc; var; cell; from } ->
    Format.fprintf fmt "P%d lock-grant v%d[%d] from %d" proc var cell from
  | Steal { thief; victim; task } ->
    Format.fprintf fmt "P%d steals task %d from P%d" thief task victim
