type 'a state = Running | Done of ('a, exn) result

type 'a cell = {
  clock : Mutex.t;
  ccond : Condition.t;
  mutable state : 'a state;
}

type ('k, 'a) t = {
  lock : Mutex.t;
  inflight : ('k, 'a cell) Hashtbl.t;
}

let create () = { lock = Mutex.create (); inflight = Hashtbl.create 16 }

let finish cell result =
  Mutex.protect cell.clock (fun () ->
      cell.state <- Done result;
      Condition.broadcast cell.ccond)

let join cell =
  Mutex.protect cell.clock (fun () ->
      let rec wait () =
        match cell.state with
        | Running ->
          Condition.wait cell.ccond cell.clock;
          wait ()
        | Done r -> r
      in
      wait ())

let run t key f =
  let role =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.inflight key with
        | Some cell -> `Follower cell
        | None ->
          let cell =
            {
              clock = Mutex.create ();
              ccond = Condition.create ();
              state = Running;
            }
          in
          Hashtbl.add t.inflight key cell;
          `Leader cell)
  in
  match role with
  | `Follower cell -> (
    match join cell with
    | Ok v -> (v, `Joined)
    | Error e -> raise e)
  | `Leader cell -> (
    let result = try Ok (f ()) with e -> Error e in
    (* land the flight before retiring the key, so a caller racing the
       retirement either joins a completed flight or starts a new one —
       never waits forever *)
    finish cell result;
    Mutex.protect t.lock (fun () -> Hashtbl.remove t.inflight key);
    match result with
    | Ok v -> (v, `Led)
    | Error e -> raise e)
