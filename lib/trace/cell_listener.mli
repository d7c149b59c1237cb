(** Consumers of the interpreter's layout-free event stream.

    The cell-level twin of {!Listener}: the interpreter calls these
    closures in program order, naming locations as (var id, cell id)
    rather than byte addresses.  [Fs_replay.Replay.translating] turns an
    address-level {!Listener} into one of these by routing every event
    through a layout's address oracle. *)

type t = {
  access : proc:int -> write:bool -> var:int -> cell:int -> unit;
  work : proc:int -> amount:int -> unit;
  barrier_arrive : proc:int -> unit;
  barrier_release : unit -> unit;
  lock_wait : proc:int -> var:int -> cell:int -> unit;
  lock_grant : proc:int -> var:int -> cell:int -> from:int -> unit;
  steal : thief:int -> victim:int -> task:int -> unit;
}

val dispatch : t -> Cell_event.t -> unit
(** Feed one reified event to the listener. *)
