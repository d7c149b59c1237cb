(** Layout-free interpreter events.

    Where {!Event} speaks in physical byte addresses, a cell event names
    the abstract location — (variable id, scalar cell id) — leaving every
    layout decision to replay time.  The variable id is the variable's
    index in the program's global-declaration order; a recorded
    {!Cell_trace} carries the id -> name table.

    Events pack into single OCaml ints (processor and variable ids below
    256, cell ids below 2^34), so traces of tens of millions of events
    stay cheap to hold and to scan. *)

type t =
  | Access of { proc : int; write : bool; var : int; cell : int }
      (** one shared-memory reference; pointer loads injected by an
          indirection layout are {e not} recorded — they are a property of
          the layout and materialize at replay *)
  | Work of { proc : int; amount : int }
  | Barrier_arrive of { proc : int }
  | Barrier_release
  | Lock_wait of { proc : int; var : int; cell : int }
  | Lock_grant of { proc : int; var : int; cell : int; from : int }
      (** [from = -1] when the lock was free *)
  | Steal of { thief : int; victim : int; task : int }
      (** the work-stealing runtime ({!Fs_sched}) moved task [task] from
          [victim]'s deque to [thief].  Packs the thief in the proc field
          and the victim in the var field, so the generic extractors
          below apply. *)

val pack : t -> int
(** @raise Invalid_argument when a field exceeds its packed range. *)

(** {1 Checked packing per tag}

    [pack] of the matching constructor, with the same range checks and
    the same [Invalid_argument] text, without building the variant.  The
    interpreter packs Access and Work events inline, with their range
    checks made once per run, and calls these for the rest. *)

val pack_access : proc:int -> write:bool -> var:int -> cell:int -> int
val pack_work : proc:int -> amount:int -> int
val pack_barrier_arrive : proc:int -> int
val pack_lock_wait : proc:int -> var:int -> cell:int -> int
val pack_lock_grant : proc:int -> var:int -> cell:int -> from:int -> int
val pack_steal : thief:int -> victim:int -> task:int -> int

val unpack : int -> t

(** {1 Allocation-free field access}

    Extractors over the packed int, for hot loops that cannot afford
    [unpack]'s per-event variant allocation.  [packed_proc] and
    [packed_var] are meaningful for every tag but [Barrier_release];
    [packed_write] and [packed_cell] only when [packed_is_access]. *)

val tag_barrier_release : int
(** The {!packed_tag} value of [Barrier_release] — the epoch cut the
    replay engine and the phase tracker both key on. *)

val tag_access : int

val tag_steal : int
(** Steal events carry no memory traffic of their own (the deque cell
    traffic is recorded as ordinary [Access] events on the scheduler's
    globals); cache simulations skip this tag. *)

val packed_tag : int -> int
val packed_is_access : int -> bool
val packed_proc : int -> int
val packed_var : int -> int
val packed_write : int -> bool
val packed_cell : int -> int

val packed_amount : int -> int
(** Meaningful for [Work] only. *)

val packed_grant_from1 : int -> int
(** [from + 1] of a packed [Lock_grant] (0 means the lock was free). *)

val packed_grant_cell : int -> int
(** The cell of a packed [Lock_grant], whose payload layout differs from
    the other cell-bearing tags. *)

val max_proc : int
val max_var : int
val max_cell : int
(** Cell bound for [Lock_grant], whose payload shares bits with the
    grantor. *)

val max_wide_cell : int
(** Cell bound for [Access] / [Lock_wait]. *)

val max_amount : int

val pp : Format.formatter -> t -> unit
