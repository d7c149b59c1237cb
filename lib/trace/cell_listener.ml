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
  | Cell_event.Access { proc; write; var; cell } -> t.access ~proc ~write ~var ~cell
  | Cell_event.Work { proc; amount } -> t.work ~proc ~amount
  | Cell_event.Barrier_arrive { proc } -> t.barrier_arrive ~proc
  | Cell_event.Barrier_release -> t.barrier_release ()
  | Cell_event.Lock_wait { proc; var; cell } -> t.lock_wait ~proc ~var ~cell
  | Cell_event.Lock_grant { proc; var; cell; from } ->
    t.lock_grant ~proc ~var ~cell ~from
  | Cell_event.Steal { thief; victim; task } -> t.steal ~thief ~victim ~task
