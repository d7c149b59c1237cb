module Ast = Fs_ir.Ast
module Cells = Fs_ir.Cells
module Layout = Fs_layout.Layout
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Sched = Fs_sched.Sched
module Rng = Fs_util.Rng

exception Runtime_error of string
exception Deadlock of string
exception Nontermination of string

type result = {
  work : int array;
  accesses : int array;
  barrier_episodes : int;
  store : (string, Value.t array) Hashtbl.t;
  sched : Sched.stats option;
}

(* ------------------------------------------------------------------ *)
(* Effects through which processes suspend: a scheduling point, a
   barrier, a contended lock.  Granting a free lock and releasing one
   need no other process to run, so they happen in place.               *)

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Barrier_wait : unit Effect.t
type _ Effect.t += Lock_wait : unit Effect.t

exception Return_of of Value.t option

(* Work units a process executes between scheduling points.  The
   interleaving of every recorded trace depends on it, so it is fixed:
   changing it changes every trace. *)
let quantum = 12

(* ------------------------------------------------------------------ *)
(* Run context and per-process environments.                           *)

type pstate = Not_started | Ready | Running | At_barrier | Waiting_lock | Finished

(* Locks are identified by their abstract location (var id, cell id):
   layouts give distinct cells distinct addresses, so this names exactly
   the same locks the address did, without consulting any layout. *)
type lockinfo = {
  mutable owner : int;  (* -1 = free *)
  waiters : int Queue.t;
}

(* A global whose every write is provably an int keeps its cells unboxed
   in [ivalues] (no allocation, no write barrier); any other global keeps
   them in [values].  The unused array is empty. *)
type ginfo = {
  gty : Ast.ty;
  vid : int;                  (* variable id: index in declaration order *)
  gint : bool;
  ivalues : int array;        (* cell id -> current value, int-only globals *)
  values : Value.t array;     (* cell id -> current value, the others *)
  mutable locks : lockinfo array;  (* per cell, made on the first lock op *)
}

let[@inline] set_int_cell g cell n =
  if g.gint then g.ivalues.(cell) <- n else g.values.(cell) <- Value.Vint n

(* One activation frame per function invocation (entry, call, or task).
   [sync] joins the frame's own spawned children — except in the entry
   activation, where it waits for global quiescence so that processes
   which spawned nothing still steal. *)
type frame = { mutable fpending : int; fentry : bool }

(* Private slots split the same way as globals: int-only slots in
   [iprivs], the rest (parameters first, in order) in [privs]. *)
type env = {
  proc : int;
  privs : Value.t array;
  iprivs : int array;
  frame : frame;
}

(* proc, the activation's frame, the evaluated arguments *)
type compiled_fun = int -> frame -> Value.t array -> Value.t option

type task = {
  t_id : int;
  t_cf : compiled_fun ref;
  t_args : Value.t array;
  t_frame : frame;            (* spawning activation, for the join count *)
}

(* Shadow state of the per-process Chase–Lev-style deques.  Every state
   transition is plain OCaml and therefore atomic with respect to the
   coroutine scheduler; the matching cell traffic on the scheduler's
   ParC globals is emitted afterwards (emitting can yield). *)
type sched_state = {
  s_cap : int;                     (* slots per process *)
  s_deque : task option array array;
  s_top : int array;               (* unbounded; slot = idx mod cap *)
  s_bot : int array;
  s_fails : int array;             (* consecutive failed random probes *)
  s_rngs : Rng.t array;            (* per-process victim stream *)
  s_g_top : ginfo;
  s_g_bot : ginfo;
  s_g_deq : ginfo;
  mutable s_outstanding : int;     (* queued tasks not yet completed *)
  mutable s_tasks_n : int;
  mutable s_steals : int;
  mutable s_attempts : int;
  mutable s_inline : int;
  mutable s_next_id : int;
}

(* Per process, [work] is the one counter [tick] advances.  The work not
   yet reported to [push] is [work - flushed], and the process reaches
   its next scheduling point when [work] reaches [deadline].

   Turns.  The schedule is a sequence of turns: the scheduler resumes a
   process, which runs until its next scheduling point or until it
   blocks.  [total] is the work of every closed turn, and the running
   process's turn began at work [turn_start]; the step budget is spent
   when [total + work - turn_start] exceeds [max_steps].  [tick]'s fast
   path tests one bound, [limit], the nearer of the deadline and the
   budget.

   Running on.  Most scheduling points fall in private computation,
   which nobody else can observe.  There the running process does not
   switch: it runs on into the turns it would get next, queueing the
   work of each, until it reaches something another process could
   observe — an event, shared memory, a lock, the task runtime, its own
   end — or [max_ahead] turns.  Only then does it suspend.  The
   scheduler, reaching the process's queued turns in round-robin order,
   charges each one's work to [total] (where the budget can run out,
   exactly as if the turn were executed there) and passes on; at the
   last it resumes the process.  The trace, the budget and every error
   are those of the switching schedule. *)
type ctx = {
  prog : Ast.program;
  nprocs : int;
  max_steps : int;
  push : int -> unit;  (* the sink of the packed events *)
  ginfos : (string, ginfo) Hashtbl.t;
  sched : sched_state option;
  work : int array;
  flushed : int array;
  deadline : int array;
  accesses : int array;
  states : pstate array;
  queued : int array array;   (* per proc: work of each turn it ran into *)
  queued_len : int array;
  queued_next : int array;    (* the next of them the scheduler reaches *)
  failed : exn option array;  (* raised while running on: due at its turn *)
  mutable limit : int;
  mutable turn_start : int;
  mutable ahead : int;        (* scheduling points the running process ran past *)
  mutable total : int;
  mutable runnable : int;     (* processes not started or ready to resume *)
  mutable barrier_episodes : int;
}

let max_ahead = 64

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Work and Access events are packed inline: lib is compiled [-opaque],
   so a [Cell_event] packer would be a call per event.  The shifts write
   its layout (tag bits 0-2, write bit 3, proc 4-11, var 12-19, amount
   12+, cell 20+); [run_cells] checks once that procs, var ids and cells
   fit, and an amount that does not fit raises the packer's error. *)
let[@inline] flush_work ctx proc =
  let w = ctx.work.(proc) in
  let amount = w - ctx.flushed.(proc) in
  if amount > 0 then begin
    ctx.flushed.(proc) <- w;
    if amount > Cell_event.max_amount then
      ignore (Cell_event.pack_work ~proc ~amount);
    ctx.push (1 lor (proc lsl 4) lor (amount lsl 12))
  end

let over_budget ctx =
  raise (Nontermination (Printf.sprintf "exceeded %d work units" ctx.max_steps))

let set_limit ctx proc =
  let d = ctx.deadline.(proc) in
  let room = ctx.max_steps - ctx.total in
  ctx.limit <-
    (if ctx.ahead > 0 || room >= d - ctx.turn_start then d
     else ctx.turn_start + room + 1)

let start_turn ctx proc =
  ctx.turn_start <- ctx.work.(proc);
  set_limit ctx proc

let end_turn ctx proc =
  let w = ctx.work.(proc) in
  ctx.total <- ctx.total + (w - ctx.turn_start);
  ctx.turn_start <- w

let queue_turn ctx proc w =
  ctx.queued.(proc).(ctx.queued_len.(proc)) <- w;
  ctx.queued_len.(proc) <- ctx.queued_len.(proc) + 1

(* Stop running on: queue the partial turn reached so far and switch. *)
let suspend_ahead ctx proc =
  queue_turn ctx proc (ctx.work.(proc) - ctx.turn_start);
  ctx.ahead <- 0;
  ctx.turn_start <- ctx.work.(proc);
  Effect.perform Yield

(* Before anything another process could observe. *)
let[@inline] catch_up ctx proc = if ctx.ahead > 0 then suspend_ahead ctx proc

(* [tick]'s slow path: the budget, or a scheduling point, which private
   computation ([run_on]) passes and anything else switches at. *)
let reach_limit ctx proc ~run_on =
  let work = ctx.work.(proc) in
  if ctx.ahead = 0 && ctx.total + (work - ctx.turn_start) > ctx.max_steps then
    over_budget ctx;
  if work >= ctx.deadline.(proc) then begin
    ctx.deadline.(proc) <- work + quantum;
    (* alone, round-robin would resume this process straight away *)
    if ctx.runnable > 0 then
      if not run_on then Effect.perform Yield
      else if ctx.ahead = 0 then begin
        end_turn ctx proc;
        ctx.ahead <- 1
      end
      else begin
        queue_turn ctx proc (work - ctx.turn_start);
        ctx.turn_start <- work;
        ctx.ahead <- ctx.ahead + 1;
        if ctx.ahead > max_ahead then suspend_ahead ctx proc
      end
  end;
  set_limit ctx proc

(* [w] work units of private computation *)
let[@inline] tick ctx proc w =
  let work = ctx.work.(proc) + w in
  ctx.work.(proc) <- work;
  if work >= ctx.limit then reach_limit ctx proc ~run_on:true

(* [w] work units after which the process must not run on *)
let[@inline] tick_point ctx proc w =
  let work = ctx.work.(proc) + w in
  ctx.work.(proc) <- work;
  if work >= ctx.limit then reach_limit ctx proc ~run_on:false

let make_ready ctx proc =
  ctx.states.(proc) <- Ready;
  ctx.runnable <- ctx.runnable + 1

let access_cost = 3

(* The access's value is read or written after [emit] returns, so its
   scheduling point switches in place. *)
let emit ctx g ~write ~proc cell =
  catch_up ctx proc;
  flush_work ctx proc;
  ctx.accesses.(proc) <- ctx.accesses.(proc) + 1;
  ctx.push
    ((if write then 8 else 0) lor (proc lsl 4) lor (g.vid lsl 12)
    lor (cell lsl 20));
  tick_point ctx proc access_cost

let lockinfo g cell =
  if Array.length g.locks = 0 then
    g.locks <-
      Array.init
        (max (Array.length g.ivalues) (Array.length g.values))
        (fun _ -> { owner = -1; waiters = Queue.create () });
  g.locks.(cell)

(* A free lock is granted on the spot; a held one queues the process and
   suspends it until the holder hands the lock over. *)
let acquire ctx g ~proc cell =
  let l = lockinfo g cell in
  if l.owner < 0 then begin
    l.owner <- proc;
    ctx.push (Cell_event.pack_lock_grant ~proc ~var:g.vid ~cell ~from:(-1))
  end
  else begin
    flush_work ctx proc;
    ctx.push (Cell_event.pack_lock_wait ~proc ~var:g.vid ~cell);
    Queue.add proc l.waiters;
    Effect.perform Lock_wait
  end

let release ctx g ~proc cell =
  let l = lockinfo g cell in
  if l.owner <> proc then
    err "P%d unlocks lock v%d[%d] held by %d" proc g.vid cell l.owner;
  match Queue.take_opt l.waiters with
  | None -> l.owner <- -1
  | Some waiter ->
    l.owner <- waiter;
    ctx.push
      (Cell_event.pack_lock_grant ~proc:waiter ~var:g.vid ~cell ~from:proc);
    make_ready ctx waiter

(* ------------------------------------------------------------------ *)
(* The work-stealing task runtime behind [spawn]/[sync].

   Help-first child stealing: the spawner pushes the child at the bottom
   of its own deque and continues; idle processes pop their own bottom
   (LIFO) or steal from a victim's top (FIFO).  Victims come from a
   per-thief split PRNG stream seeded by the run's scheduler config, so
   the whole execution is a pure function of (program, nprocs, seed).
   After [nprocs - 1] consecutive failed random probes the thief sweeps
   every victim deterministically, so progress never depends on luck.

   The deque indices and slots are ParC globals ([Sched.top_var] etc.):
   each operation below emits the cell traffic a real Chase–Lev deque
   would generate, which is how the scheduler's own false sharing enters
   the trace. *)

let new_frame fentry = { fpending = 0; fentry }

let[@inline] deq_cell s p idx = (p * s.s_cap) + (idx mod s.s_cap)

let run_task ctx s env (t : task) =
  ignore (!(t.t_cf) env.proc (new_frame false) t.t_args);
  catch_up ctx env.proc;
  t.t_frame.fpending <- t.t_frame.fpending - 1;
  s.s_outstanding <- s.s_outstanding - 1

let spawn_task ctx s env (cf : compiled_fun ref) argv =
  let p = env.proc in
  catch_up ctx p;
  s.s_tasks_n <- s.s_tasks_n + 1;
  if s.s_bot.(p) - s.s_top.(p) >= s.s_cap then begin
    (* deque full: run in place — the fullness probe still reads top *)
    s.s_inline <- s.s_inline + 1;
    emit ctx s.s_g_top ~write:false ~proc:p p;
    ignore (!cf p (new_frame false) argv)
  end
  else begin
    let id = s.s_next_id in
    s.s_next_id <- id + 1;
    let b = s.s_bot.(p) in
    s.s_deque.(p).(b mod s.s_cap) <-
      Some { t_id = id; t_cf = cf; t_args = argv; t_frame = env.frame };
    s.s_bot.(p) <- b + 1;
    env.frame.fpending <- env.frame.fpending + 1;
    s.s_outstanding <- s.s_outstanding + 1;
    (* push: fullness check reads top, then the slot and bottom writes *)
    emit ctx s.s_g_top ~write:false ~proc:p p;
    let cell = deq_cell s p b in
    set_int_cell s.s_g_deq cell id;
    emit ctx s.s_g_deq ~write:true ~proc:p cell;
    set_int_cell s.s_g_bot p (b + 1);
    emit ctx s.s_g_bot ~write:true ~proc:p p
  end

let pop_own ctx s p =
  if s.s_bot.(p) - s.s_top.(p) <= 0 then None
  else begin
    let b = s.s_bot.(p) - 1 in
    s.s_bot.(p) <- b;
    let t = s.s_deque.(p).(b mod s.s_cap) in
    s.s_deque.(p).(b mod s.s_cap) <- None;
    (* owner pop: bottom write, top race check, slot read *)
    set_int_cell s.s_g_bot p b;
    emit ctx s.s_g_bot ~write:true ~proc:p p;
    emit ctx s.s_g_top ~write:false ~proc:p p;
    emit ctx s.s_g_deq ~write:false ~proc:p (deq_cell s p b);
    t
  end

let steal_from ctx s ~thief ~victim =
  s.s_attempts <- s.s_attempts + 1;
  if s.s_bot.(victim) - s.s_top.(victim) <= 0 then begin
    (* failed probe: the thief still reads both ends of the victim's deque *)
    emit ctx s.s_g_top ~write:false ~proc:thief victim;
    emit ctx s.s_g_bot ~write:false ~proc:thief victim;
    None
  end
  else begin
    let tp = s.s_top.(victim) in
    let t = s.s_deque.(victim).(tp mod s.s_cap) in
    s.s_deque.(victim).(tp mod s.s_cap) <- None;
    s.s_top.(victim) <- tp + 1;
    emit ctx s.s_g_top ~write:false ~proc:thief victim;
    emit ctx s.s_g_bot ~write:false ~proc:thief victim;
    emit ctx s.s_g_deq ~write:false ~proc:thief (deq_cell s victim tp);
    set_int_cell s.s_g_top victim (tp + 1);
    emit ctx s.s_g_top ~write:true ~proc:thief victim;
    (match t with
     | Some t ->
       s.s_steals <- s.s_steals + 1;
       flush_work ctx thief;
       ctx.push (Cell_event.pack_steal ~thief ~victim ~task:t.t_id)
     | None -> ());
    t
  end

let try_steal ctx s p =
  let n = ctx.nprocs in
  if n <= 1 then None
  else
    let v = (p + 1 + Rng.int s.s_rngs.(p) (n - 1)) mod n in
    match steal_from ctx s ~thief:p ~victim:v with
    | Some _ as r ->
      s.s_fails.(p) <- 0;
      r
    | None ->
      s.s_fails.(p) <- s.s_fails.(p) + 1;
      if s.s_fails.(p) < n - 1 then None
      else begin
        s.s_fails.(p) <- 0;
        let rec sweep k =
          if k >= n then None
          else
            match steal_from ctx s ~thief:p ~victim:((p + k) mod n) with
            | Some _ as r -> r
            | None -> sweep (k + 1)
        in
        sweep 1
      end

let rec sched_sync ctx s env =
  catch_up ctx env.proc;
  let done_ () =
    if env.frame.fentry then s.s_outstanding = 0 else env.frame.fpending <= 0
  in
  if not (done_ ()) then begin
    (match pop_own ctx s env.proc with
     | Some t -> run_task ctx s env t
     | None -> (
       match try_steal ctx s env.proc with
       | Some t -> run_task ctx s env t
       | None ->
         (* nothing visible to run: burn a unit and let the others go
            (when nobody else can run, round-robin would resume this
            process straight away, so it does not switch) *)
         tick_point ctx env.proc 1;
         ctx.deadline.(env.proc) <- ctx.work.(env.proc) + quantum;
         set_limit ctx env.proc;
         if ctx.runnable > 0 then Effect.perform Yield));
    sched_sync ctx s env
  end

(* ------------------------------------------------------------------ *)
(* Int-only inference.

   Run-time values are ints or floats, and a value that is provably an
   int can stay unboxed from the expression that computes it to the slot
   or cell that holds it.  An expression is provably an int when it is an
   int literal, [Pdv], [Nprocs], a read of an int-only private slot or
   global, or an operator over provably-int operands.  A slot or global
   is int-only unless some write to it is not provably an int: a float
   literal, a read of a boxed global or slot, a parameter (arguments
   arrive boxed) or a call result.  The fixpoint starts optimistic and
   only demotes, so it terminates.  Declared types take no part: a value
   is whatever was written, exactly as in the boxed representation. *)

(* Private variables of a function are slot-allocated, flow-insensitively:
   one slot per distinct name among parameters, [Decl]s, [For] variables
   and call-return targets; parameters come first, in order. *)
let slot_names (f : Ast.func) =
  let seen = Hashtbl.create 16 and names = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      names := n :: !names
    end
  in
  List.iter add f.params;
  Ast.iter_stmts
    (fun s ->
      match s with
      | Ast.Decl (n, _) | Ast.For (n, _, _, _) | Ast.Call { ret = Some n; _ } -> add n
      | _ -> ())
    f.body;
  List.rev !names

(* [(int_global name, int_priv fname name)] *)
let infer_ints (prog : Ast.program) =
  let boxed_globals = Hashtbl.create 16 and boxed_privs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      List.iter (fun n -> Hashtbl.replace boxed_privs (f.fname, n) ()) f.params)
    prog.funcs;
  let changed = ref true in
  let demote tbl key =
    if not (Hashtbl.mem tbl key) then begin
      Hashtbl.add tbl key ();
      changed := true
    end
  in
  let rec int_expr fname (e : Ast.expr) =
    match e with
    | Int_lit _ | Pdv | Nprocs -> true
    | Float_lit _ -> false
    | Priv n -> not (Hashtbl.mem boxed_privs (fname, n))
    | Load lv -> not (Hashtbl.mem boxed_globals lv.base)
    | Unop (_, e) -> int_expr fname e
    | Binop (_, e1, e2) -> int_expr fname e1 && int_expr fname e2
  in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ast.func) ->
        Ast.iter_stmts
          (fun s ->
            match s with
            | Ast.Set (n, e) | Ast.Decl (n, e) ->
              if not (int_expr f.fname e) then demote boxed_privs (f.fname, n)
            | Ast.Call { ret = Some n; _ } -> demote boxed_privs (f.fname, n)
            | Ast.Store (lv, e) ->
              if not (int_expr f.fname e) then demote boxed_globals lv.base
            | _ -> ())
          f.body)
      prog.funcs
  done;
  ( (fun name -> not (Hashtbl.mem boxed_globals name)),
    fun fname n -> not (Hashtbl.mem boxed_privs (fname, n)) )

(* ------------------------------------------------------------------ *)
(* Compilation of the AST to closures.

   One compiler: each expression compiles to an unboxed closure when it
   is provably an int and to a [Value.t] closure otherwise, with the
   operator chosen at compile time on the unboxed side.  Evaluation
   order is part of the trace, so it is spelled out with [let]: a binary
   operator evaluates its right operand first, a store computes its cell
   before its value, and call arguments go left to right. *)

(* Int literals and int-only slot reads stay visible as leaves, so an
   operator over them reads them in place instead of through a closure. *)
type cexpr =
  | K of int                  (* an int literal or [Nprocs] *)
  | S of int                  (* a read of an int-only private slot *)
  | I of (env -> int)         (* any other provably-int expression *)
  | B of (env -> Value.t)     (* the rest, boxed *)

type slot = Islot of int | Bslot of int

(* the inference hands every int-only target a provably-int value *)
let int_fn = function
  | K n -> fun _ -> n
  | S s -> fun env -> env.iprivs.(s)
  | I f -> f
  | B _ -> invalid_arg "Interp: boxed value for an int-only target"

(* an index or loop bound: a float is a [Value.Type_error] *)
let to_int = function B f -> fun env -> Value.to_int (f env) | c -> int_fn c

let boxed = function
  | B f -> f
  | K n ->
    let v = Value.Vint n in
    fun _ -> v
  | c ->
    let f = int_fn c in
    fun env -> Value.Vint (f env)

let truthy = function
  | B f -> fun env -> Value.truthy (f env)
  | c ->
    let f = int_fn c in
    fun env -> f env <> 0

(* The operator over two unboxed ints, chosen here once.  Three operand
   shapes are written out: a slot against a literal, anything against a
   literal, and the general case, which evaluates the right operand
   first.  (Non-flambda ocamlopt does not inline a function that builds
   closures, so a shared shape helper taking the operator as an argument
   would call it through a closure on every evaluation.)  [/] and [mod]
   raise [Division_by_zero] themselves, as [Value.binop] does. *)
let int_test (op : Ast.binop) c1 c2 : env -> bool =
  match (op, c1, c2) with
  | Eq, S s, K k -> fun env -> env.iprivs.(s) = k
  | Ne, S s, K k -> fun env -> env.iprivs.(s) <> k
  | Lt, S s, K k -> fun env -> env.iprivs.(s) < k
  | Le, S s, K k -> fun env -> env.iprivs.(s) <= k
  | Gt, S s, K k -> fun env -> env.iprivs.(s) > k
  | Ge, S s, K k -> fun env -> env.iprivs.(s) >= k
  | (Eq | Ne | Lt | Le | Gt | Ge), _, K k -> (
    let f = int_fn c1 in
    match op with
    | Eq -> fun env -> f env = k
    | Ne -> fun env -> f env <> k
    | Lt -> fun env -> f env < k
    | Le -> fun env -> f env <= k
    | Gt -> fun env -> f env > k
    | _ -> fun env -> f env >= k)
  | (Eq | Ne | Lt | Le | Gt | Ge), _, _ -> (
    let f1 = int_fn c1 and f2 = int_fn c2 in
    match op with
    | Eq -> fun env -> let b = f2 env in f1 env = b
    | Ne -> fun env -> let b = f2 env in f1 env <> b
    | Lt -> fun env -> let b = f2 env in f1 env < b
    | Le -> fun env -> let b = f2 env in f1 env <= b
    | Gt -> fun env -> let b = f2 env in f1 env > b
    | _ -> fun env -> let b = f2 env in f1 env >= b)
  | (Add | Sub | Mul | Div | Mod | And | Or | Min | Max), _, _ ->
    invalid_arg "Interp.int_test: not a comparison"

(* Division by a literal [k], 0 < k < 2^30, with a multiply (Granlund &
   Montgomery, PLDI 1994): for 0 <= x < 2^30, x / k = (x * m) lsr sh,
   where sh = 30 + ceil(log2 k) and m = ceil(2^sh / k) <= 2^31, so x * m
   stays below 2^61.  A power of two is a shift or a mask for any x >= 0.
   Every other dividend or divisor takes [/] or [mod] itself, so negative
   rounding and [Division_by_zero] are OCaml's. *)
type divisor = Plain | Pow2 of int (* log2 k *) | Magic of int * int (* m, sh *)

let divisor k =
  let l = ref 0 in
  if k <= 0 || k >= 1 lsl 30 then Plain
  else begin
    while 1 lsl !l < k do incr l done;
    if 1 lsl !l = k then Pow2 !l else Magic (((1 lsl (30 + !l)) + k - 1) / k, 30 + !l)
  end

(* [Min]/[Max] keep [Value.binop]'s tie-breaking *)
let int_binop (op : Ast.binop) c1 c2 : env -> int =
  match (op, c1, c2) with
  | (Eq | Ne | Lt | Le | Gt | Ge), _, _ ->
    let test = int_test op c1 c2 in
    fun env -> Bool.to_int (test env)
  | Add, S s, K k -> fun env -> env.iprivs.(s) + k
  | Sub, S s, K k -> fun env -> env.iprivs.(s) - k
  | Mul, S s, K k -> fun env -> env.iprivs.(s) * k
  | Div, S s, K k -> (
    match divisor k with
    | Pow2 p -> fun env -> let x = env.iprivs.(s) in if x >= 0 then x lsr p else x / k
    | Magic (m, sh) ->
      fun env -> let x = env.iprivs.(s) in if x lsr 30 = 0 then (x * m) lsr sh else x / k
    | Plain -> fun env -> env.iprivs.(s) / k)
  | Mod, S s, K k -> (
    match divisor k with
    | Pow2 _ -> fun env -> let x = env.iprivs.(s) in if x >= 0 then x land (k - 1) else x mod k
    | Magic (m, sh) ->
      fun env ->
        let x = env.iprivs.(s) in
        if x lsr 30 = 0 then x - (((x * m) lsr sh) * k) else x mod k
    | Plain -> fun env -> env.iprivs.(s) mod k)
  | Min, S s, K k -> fun env -> let a = env.iprivs.(s) in if a <= k then a else k
  | Max, S s, K k -> fun env -> let a = env.iprivs.(s) in if a >= k then a else k
  | Div, _, K k -> (
    let f = int_fn c1 in
    match divisor k with
    | Pow2 p -> fun env -> let x = f env in if x >= 0 then x lsr p else x / k
    | Magic (m, sh) ->
      fun env -> let x = f env in if x lsr 30 = 0 then (x * m) lsr sh else x / k
    | Plain -> fun env -> f env / k)
  | Mod, _, K k -> (
    let f = int_fn c1 in
    match divisor k with
    | Pow2 _ -> fun env -> let x = f env in if x >= 0 then x land (k - 1) else x mod k
    | Magic (m, sh) ->
      fun env -> let x = f env in if x lsr 30 = 0 then x - (((x * m) lsr sh) * k) else x mod k
    | Plain -> fun env -> f env mod k)
  | (Add | Sub | Mul | Min | Max), _, K k -> (
    let f = int_fn c1 in
    match op with
    | Add -> fun env -> f env + k
    | Sub -> fun env -> f env - k
    | Mul -> fun env -> f env * k
    | Min -> fun env -> let a = f env in if a <= k then a else k
    | _ -> fun env -> let a = f env in if a >= k then a else k)
  | (Add | Sub | Mul | Div | Mod | Min | Max), _, _ -> (
    let f1 = int_fn c1 and f2 = int_fn c2 in
    match op with
    | Add -> fun env -> let b = f2 env in f1 env + b
    | Sub -> fun env -> let b = f2 env in f1 env - b
    | Mul -> fun env -> let b = f2 env in f1 env * b
    | Div -> fun env -> let b = f2 env in f1 env / b
    | Mod -> fun env -> let b = f2 env in f1 env mod b
    | Min -> fun env -> let b = f2 env in let a = f1 env in if a <= b then a else b
    | _ -> fun env -> let b = f2 env in let a = f1 env in if a >= b then a else b)
  | (And | Or), _, _ -> invalid_arg "Interp.int_binop: short-circuit operator"

let binop op c1 c2 =
  match (c1, c2) with
  | B _, _ | _, B _ ->
    let c1 = boxed c1 and c2 = boxed c2 in
    B
      (fun env ->
        let b = c2 env in
        let a = c1 env in
        Value.binop op a b)
  | _ -> I (int_binop op c1 c2)

let compile ctx ~int_priv =
  let prog = ctx.prog in
  let funs : (string, compiled_fun ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.add funs f.fname
        (ref (fun _ _ _ -> err "function %s not yet compiled" f.fname)))
    prog.funcs;
  let ginfo name =
    match Hashtbl.find_opt ctx.ginfos name with
    | Some g -> g
    | None -> err "unknown global %s" name
  in
  let compile_func (f : Ast.func) =
    let slots = Hashtbl.create 16 in
    let nints = ref 0 and nboxed = ref 0 in
    List.iter
      (fun n ->
        if int_priv f.fname n then begin
          Hashtbl.add slots n (Islot !nints);
          incr nints
        end
        else begin
          Hashtbl.add slots n (Bslot !nboxed);
          incr nboxed
        end)
      (slot_names f);
    let slot n =
      match Hashtbl.find_opt slots n with
      | Some s -> s
      | None -> err "undeclared private %s in %s" n f.fname
    in
    let rec compile_expr (e : Ast.expr) : cexpr =
      match e with
      | Int_lit n -> K n
      | Float_lit x ->
        let v = Value.Vfloat x in
        B (fun _ -> v)
      | Pdv -> I (fun env -> env.proc)
      | Nprocs -> K ctx.nprocs
      | Priv n -> (
        match slot n with
        | Islot s -> S s
        | Bslot s -> B (fun env -> env.privs.(s)))
      | Load lv ->
        let g, cellf = compile_lvalue lv in
        if g.gint then
          I
            (fun env ->
              let cell = cellf env in
              emit ctx g ~write:false ~proc:env.proc cell;
              g.ivalues.(cell))
        else
          B
            (fun env ->
              let cell = cellf env in
              emit ctx g ~write:false ~proc:env.proc cell;
              g.values.(cell))
      | Unop (op, e) -> (
        match (op, compile_expr e) with
        | _, B f -> B (fun env -> Value.unop op (f env))
        | Neg, c ->
          let f = int_fn c in
          I (fun env -> -f env)
        | Not, c ->
          let f = int_fn c in
          I (fun env -> Bool.to_int (f env = 0)))
      | Binop (And, e1, e2) -> (
        let c1 = compile_expr e1 and c2 = compile_expr e2 in
        let t1 = truthy c1 and t2 = truthy c2 in
        match (c1, c2) with
        | B _, _ | _, B _ ->
          B (fun env -> if t1 env then Value.of_bool (t2 env) else Value.zero)
        | _ -> I (fun env -> if t1 env then Bool.to_int (t2 env) else 0))
      | Binop (Or, e1, e2) -> (
        let c1 = compile_expr e1 and c2 = compile_expr e2 in
        let t1 = truthy c1 and t2 = truthy c2 in
        match (c1, c2) with
        | B _, _ | _, B _ ->
          B (fun env -> if t1 env then Value.Vint 1 else Value.of_bool (t2 env))
        | _ -> I (fun env -> if t1 env then 1 else Bool.to_int (t2 env)))
      | Binop (op, e1, e2) -> binop op (compile_expr e1) (compile_expr e2)

    (* a condition: an int comparison tests in place *)
    and compile_cond (e : Ast.expr) : env -> bool =
      match e with
      | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), e1, e2) -> (
        match (compile_expr e1, compile_expr e2) with
        | (B _ as c1), c2 | c1, (B _ as c2) -> truthy (binop op c1 c2)
        | c1, c2 -> int_test op c1 c2)
      | _ -> truthy (compile_expr e)

    (* An lvalue compiles to its global's info plus a cell-id computation:
       constant field offsets are folded at compile time; each index
       contributes eval * stride with a bounds check, left to right. *)
    and compile_lvalue (lv : Ast.lvalue) : ginfo * (env -> int) =
      let g = ginfo lv.base in
      let rec walk ty path const parts =
        match (ty, path) with
        | _, [] -> (const, List.rev parts)
        | Ast.Array (elt, n), Ast.Idx e :: rest -> (
          let stride = Cells.count prog elt in
          match compile_expr e with
          | K i when i >= 0 && i < n -> walk elt rest (const + (i * stride)) parts
          | c -> walk elt rest const ((c, stride, n) :: parts))
        | Ast.Struct sname, Ast.Fld fld :: rest ->
          let sdef = Ast.find_struct prog sname in
          let fty =
            match List.assoc_opt fld sdef.fields with
            | Some t -> t
            | None -> err "struct %s has no field %s" sname fld
          in
          walk fty rest (const + Cells.field_offset prog sdef fld) parts
        | _ -> err "ill-shaped access path on %s" lv.base
      in
      let const, parts = walk g.gty lv.path 0 [] in
      let out_of_bounds i n =
        err "index %d out of bounds [0,%d) on %s" i n lv.base
      in
      let cellf =
        match parts with
        | [] -> fun _ -> const
        | [ (S s, stride, n) ] ->
          fun env ->
            let i = env.iprivs.(s) in
            if i < 0 || i >= n then out_of_bounds i n;
            const + (i * stride)
        | [ (c, stride, n) ] ->
          let ce = to_int c in
          fun env ->
            let i = ce env in
            if i < 0 || i >= n then out_of_bounds i n;
            const + (i * stride)
        | [ (c1, stride1, n1); (c2, stride2, n2) ] ->
          let ce1 = to_int c1 and ce2 = to_int c2 in
          fun env ->
            let i1 = ce1 env in
            if i1 < 0 || i1 >= n1 then out_of_bounds i1 n1;
            let i2 = ce2 env in
            if i2 < 0 || i2 >= n2 then out_of_bounds i2 n2;
            const + (i1 * stride1) + (i2 * stride2)
        | parts ->
          let parts =
            Array.of_list (List.map (fun (c, stride, n) -> (to_int c, stride, n)) parts)
          in
          fun env ->
            let cell = ref const in
            for k = 0 to Array.length parts - 1 do
              let ce, stride, n = parts.(k) in
              let i = ce env in
              if i < 0 || i >= n then out_of_bounds i n;
              cell := !cell + (i * stride)
            done;
            !cell
      in
      (g, cellf)
    in
    (* call results and arguments stay boxed *)
    let boxed_slot n =
      match slot n with
      | Bslot s -> s
      | Islot _ -> invalid_arg "Interp: call result bound to an int-only slot"
    in
    let rec compile_stmt (s : Ast.stmt) : env -> unit =
      match s with
      | Store (lv, e) ->
        let g, cellf = compile_lvalue lv in
        if g.gint then
          let ce = int_fn (compile_expr e) in
          fun env ->
            tick ctx env.proc 1;
            let cell = cellf env in
            let v = ce env in
            emit ctx g ~write:true ~proc:env.proc cell;
            g.ivalues.(cell) <- v
        else
          let ce = boxed (compile_expr e) in
          fun env ->
            tick ctx env.proc 1;
            let cell = cellf env in
            let v = ce env in
            emit ctx g ~write:true ~proc:env.proc cell;
            g.values.(cell) <- v
      | Set (n, e) | Decl (n, e) -> (
        match slot n with
        | Islot s ->
          let ce = int_fn (compile_expr e) in
          fun env ->
            tick ctx env.proc 1;
            env.iprivs.(s) <- ce env
        | Bslot s ->
          let ce = boxed (compile_expr e) in
          fun env ->
            tick ctx env.proc 1;
            env.privs.(s) <- ce env)
      | If (c, b1, b2) ->
        let cc = compile_cond c in
        let cb1 = compile_block b1 and cb2 = compile_block b2 in
        fun env ->
          tick ctx env.proc 1;
          if cc env then cb1 env else cb2 env
      | While (c, b) ->
        let cc = compile_cond c in
        let cb = compile_block b in
        fun env ->
          tick ctx env.proc 1;
          while cc env do
            cb env;
            tick ctx env.proc 1
          done
      | For (n, lo, hi, b) -> (
        let clo = to_int (compile_expr lo) and chi = to_int (compile_expr hi) in
        let cb = compile_block b in
        match slot n with
        | Islot s ->
          fun env ->
            tick ctx env.proc 1;
            let i = ref (clo env) in
            while !i < chi env do
              env.iprivs.(s) <- !i;
              cb env;
              tick ctx env.proc 1;
              incr i
            done
        | Bslot s ->
          fun env ->
            tick ctx env.proc 1;
            let i = ref (clo env) in
            while !i < chi env do
              env.privs.(s) <- Value.Vint !i;
              cb env;
              tick ctx env.proc 1;
              incr i
            done)
      | Call { ret; callee; args } ->
        let cf =
          match Hashtbl.find_opt funs callee with
          | Some r -> r
          | None -> err "call to unknown function %s" callee
        in
        let cargs = Array.of_list (List.map (fun e -> boxed (compile_expr e)) args) in
        let rslot = Option.map boxed_slot ret in
        fun env ->
          tick ctx env.proc 1;
          let argv = Array.map (fun ce -> ce env) cargs in
          let callee_frame =
            (* frames only matter to the task runtime; without it, reusing
               the caller's frame saves an allocation per call *)
            match ctx.sched with None -> env.frame | Some _ -> new_frame false
          in
          let res = !cf env.proc callee_frame argv in
          (match (rslot, res) with
           | None, _ -> ()
           | Some s, Some v -> env.privs.(s) <- v
           | Some _, None -> err "function %s returned no value" callee)
      | Spawn { callee; args } ->
        let cf =
          match Hashtbl.find_opt funs callee with
          | Some r -> r
          | None -> err "spawn of unknown function %s" callee
        in
        let cargs = Array.of_list (List.map (fun e -> boxed (compile_expr e)) args) in
        fun env ->
          tick ctx env.proc 1;
          let argv = Array.map (fun ce -> ce env) cargs in
          (match ctx.sched with
           | Some s -> spawn_task ctx s env cf argv
           | None -> err "spawn executed without an active scheduler")
      | Sync ->
        fun env ->
          tick ctx env.proc 1;
          (match ctx.sched with
           | Some s -> sched_sync ctx s env
           | None -> err "sync executed without an active scheduler")
      | Return e ->
        let ce = Option.map (fun e -> boxed (compile_expr e)) e in
        fun env ->
          tick ctx env.proc 1;
          raise (Return_of (Option.map (fun ce -> ce env) ce))
      | Barrier ->
        fun env ->
          tick ctx env.proc 1;
          catch_up ctx env.proc;
          flush_work ctx env.proc;
          ctx.push (Cell_event.pack_barrier_arrive ~proc:env.proc);
          Effect.perform Barrier_wait
      | Lock lv ->
        let g, cellf = compile_lvalue lv in
        fun env ->
          tick ctx env.proc 1;
          let cell = cellf env in
          (* the probe read of test-and-test-and-set *)
          emit ctx g ~write:false ~proc:env.proc cell;
          acquire ctx g ~proc:env.proc cell;
          (* granted: the re-read after invalidation and the acquiring write *)
          emit ctx g ~write:false ~proc:env.proc cell;
          emit ctx g ~write:true ~proc:env.proc cell;
          set_int_cell g cell 1
      | Unlock lv ->
        let g, cellf = compile_lvalue lv in
        fun env ->
          tick ctx env.proc 1;
          let cell = cellf env in
          emit ctx g ~write:true ~proc:env.proc cell;
          set_int_cell g cell 0;
          release ctx g ~proc:env.proc cell
    and compile_block (b : Ast.block) : env -> unit =
      match Array.of_list (List.map compile_stmt b) with
      | [||] -> fun _ -> ()
      | [| s |] -> s
      | [| s1; s2 |] ->
        fun env ->
          s1 env;
          s2 env
      | stmts ->
        fun env ->
          for k = 0 to Array.length stmts - 1 do
            stmts.(k) env
          done
    in
    let cbody = compile_block f.body in
    let nparams = List.length f.params in
    let nints = !nints and nboxed = !nboxed in
    fun proc frame args ->
      (* The caller passes evaluated arguments, which become the leading
         boxed slots; grow them to the function's full slot count. *)
      let privs =
        if Array.length args = nboxed then args
        else begin
          let a = Array.make nboxed Value.zero in
          Array.blit args 0 a 0 (min nparams (Array.length args));
          a
        end
      in
      let iprivs = if nints = 0 then [||] else Array.make nints 0 in
      match cbody { proc; privs; iprivs; frame } with
      | () -> None
      | exception Return_of v -> v
  in
  List.iter
    (fun (f : Ast.func) -> Hashtbl.find funs f.fname := compile_func f)
    prog.funcs;
  funs

(* ------------------------------------------------------------------ *)
(* The scheduler.

   Round-robin over the processes that can run, from a central loop: a
   handler parks the suspended continuation in its process's slot and
   returns to the loop, which resumes the next process.  (Resuming
   another process from inside a handler would nest fiber stacks.)  The
   per-process handlers for the frequent effects are built once. *)

let run_cells ?(max_steps = 400_000_000) ?sched prog ~nprocs ~push =
  if nprocs <= 0 then invalid_arg "Interp.run_cells: nprocs must be positive";
  if nprocs > Cell_event.max_proc + 1 then
    invalid_arg "Interp.run_cells: more than 256 processes";
  (match Fs_ir.Validate.check prog with
   | Ok () -> ()
   | Error errs -> raise (Fs_ir.Validate.Invalid_program errs));
  (* the range checks of the inline Access packing, once *)
  if List.length prog.Ast.globals > Cell_event.max_var + 1 then
    invalid_arg "Interp.run_cells: more than 256 globals";
  let int_global, int_priv = infer_ints prog in
  let ginfos = Hashtbl.create 16 in
  List.iteri
    (fun vid (name, gty) ->
      let n = Cells.count prog gty in
      if n > Cell_event.max_wide_cell + 1 then
        invalid_arg ("Interp.run_cells: too many cells in " ^ name);
      let gint = int_global name in
      Hashtbl.add ginfos name
        {
          gty;
          vid;
          gint;
          ivalues = (if gint then Array.make n 0 else [||]);
          values = (if gint then [||] else Array.make n Value.zero);
          locks = [||];
        })
    prog.Ast.globals;
  let sched_state =
    let uses = Sched.uses_tasks prog in
    match sched with
    | Some cfg when uses ->
      let cap =
        match Sched.deque_cap ~nprocs prog with
        | Some c -> c
        | None ->
          err
            "program uses spawn/sync but lacks the scheduler globals; \
             build it through Sched.instrument"
      in
      let gi name =
        match Hashtbl.find_opt ginfos name with
        | Some g -> g
        | None -> err "scheduler global %s missing" name
      in
      let master = Rng.create cfg.Sched.seed in
      Some
        {
          s_cap = cap;
          s_deque = Array.init nprocs (fun _ -> Array.make cap None);
          s_top = Array.make nprocs 0;
          s_bot = Array.make nprocs 0;
          s_fails = Array.make nprocs 0;
          s_rngs = Array.init nprocs (fun _ -> Rng.split master);
          s_g_top = gi Sched.top_var;
          s_g_bot = gi Sched.bot_var;
          s_g_deq = gi Sched.deq_var;
          s_outstanding = 0;
          s_tasks_n = 0;
          s_steals = 0;
          s_attempts = 0;
          s_inline = 0;
          s_next_id = 0;
        }
    | _ ->
      if uses then
        raise
          (Runtime_error
             "program uses spawn/sync: a scheduler seed is required (pass \
              --sched-seed)");
      None
  in
  let ctx =
    {
      prog;
      nprocs;
      max_steps;
      push;
      ginfos;
      sched = sched_state;
      work = Array.make nprocs 0;
      flushed = Array.make nprocs 0;
      deadline = Array.make nprocs quantum;
      accesses = Array.make nprocs 0;
      states = Array.make nprocs Not_started;
      queued = Array.make_matrix nprocs (max_ahead + 1) 0;
      queued_len = Array.make nprocs 0;
      queued_next = Array.make nprocs 0;
      failed = Array.make nprocs None;
      limit = 0;
      turn_start = 0;
      ahead = 0;
      total = 0;
      runnable = nprocs;
      barrier_episodes = 0;
    }
  in
  let funs = compile ctx ~int_priv in
  let entry =
    match Hashtbl.find_opt funs prog.entry with
    | Some r -> !r
    | None -> err "entry function %s not found" prog.entry
  in
  let states = ctx.states in
  (* the continuation of every suspended process; made on the first
     suspension, whose continuation fills it *)
  let conts = ref [||] in
  let park proc k =
    if Array.length !conts = 0 then conts := Array.make nprocs k;
    !conts.(proc) <- k
  in
  let alive_count () =
    Array.fold_left
      (fun acc s -> match s with Finished -> acc | _ -> acc + 1)
      0 states
  in
  let barrier_count () =
    Array.fold_left
      (fun acc s -> match s with At_barrier -> acc + 1 | _ -> acc)
      0 states
  in
  let release_barrier_if_complete () =
    let n_at = barrier_count () in
    if n_at > 0 && n_at = alive_count () then begin
      ctx.barrier_episodes <- ctx.barrier_episodes + 1;
      ctx.push Cell_event.tag_barrier_release;
      Array.iteri (fun i s -> if s = At_barrier then make_ready ctx i) states
    end
  in
  let run_proc proc =
    let body () =
      ignore (entry proc (new_frame true) [||]);
      catch_up ctx proc;
      flush_work ctx proc
    in
    let on_yield =
      Some
        (fun (k : (unit, unit) Effect.Deep.continuation) ->
          end_turn ctx proc;
          park proc k;
          make_ready ctx proc)
    in
    let on_barrier =
      Some
        (fun (k : (unit, unit) Effect.Deep.continuation) ->
          end_turn ctx proc;
          park proc k;
          states.(proc) <- At_barrier;
          release_barrier_if_complete ())
    in
    let on_lock_wait =
      Some
        (fun (k : (unit, unit) Effect.Deep.continuation) ->
          end_turn ctx proc;
          park proc k;
          states.(proc) <- Waiting_lock)
    in
    Effect.Deep.match_with body ()
      {
        retc =
          (fun () ->
            end_turn ctx proc;
            states.(proc) <- Finished);
        exnc =
          (fun e ->
            (* the compiled arithmetic divides with OCaml's [/] and [mod] *)
            let e =
              match e with Division_by_zero -> Runtime_error "division by zero" | e -> e
            in
            (* an error in computation run ahead of the schedule is raised
               when the schedule reaches it *)
            if ctx.ahead = 0 then raise e;
            queue_turn ctx proc (ctx.work.(proc) - ctx.turn_start);
            ctx.ahead <- 0;
            ctx.failed.(proc) <- Some e;
            make_ready ctx proc);
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | Yield -> on_yield
            | Barrier_wait -> on_barrier
            | Lock_wait -> on_lock_wait
            | _ -> None);
      }
  in
  (* Round-robin over ready processes; deterministic. *)
  let next = ref 0 in
  let rec find_ready tried =
    if tried >= nprocs then -1
    else
      let p = (!next + tried) mod nprocs in
      match states.(p) with
      | Not_started | Ready -> p
      | Running | At_barrier | Waiting_lock | Finished -> find_ready (tried + 1)
  in
  let p = ref (find_ready 0) in
  while !p >= 0 do
    let proc = !p in
    next := (proc + 1) mod nprocs;
    ctx.runnable <- ctx.runnable - 1;
    (match states.(proc) with
     | Not_started ->
       states.(proc) <- Running;
       start_turn ctx proc;
       run_proc proc
     | Ready ->
       let q = ctx.queued_next.(proc) and n = ctx.queued_len.(proc) in
       if q < n then begin
         (* a turn the process already ran into *)
         ctx.total <- ctx.total + ctx.queued.(proc).(q);
         if ctx.total > max_steps then over_budget ctx;
         ctx.queued_next.(proc) <- q + 1
       end;
       if q + 1 < n then ctx.runnable <- ctx.runnable + 1
       else begin
         ctx.queued_len.(proc) <- 0;
         ctx.queued_next.(proc) <- 0;
         states.(proc) <- Running;
         start_turn ctx proc;
         match ctx.failed.(proc) with
         | Some e -> raise e
         | None -> Effect.Deep.continue !conts.(proc) ()
       end
     | Running | At_barrier | Waiting_lock | Finished -> assert false);
    p := find_ready 0
  done;
  if alive_count () > 0 then begin
    let held =
      Hashtbl.fold
        (fun _ g acc ->
          Array.to_list
            (Array.mapi (fun cell l -> (g.vid, cell, l.owner)) g.locks)
          @ acc)
        ginfos []
      |> List.filter (fun (_, _, owner) -> owner >= 0)
      |> List.sort compare
      |> List.map (fun (var, cell, owner) ->
             Printf.sprintf "lock v%d[%d] held by P%d" var cell owner)
    in
    raise
      (Deadlock
         (Printf.sprintf "%d processes blocked (%d at barrier)%s"
            (alive_count ()) (barrier_count ())
            (match held with [] -> "" | l -> "; " ^ String.concat ", " l)))
  end;
  let store = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name g ->
      Hashtbl.add store name
        (if g.gint then Array.map (fun n -> Value.Vint n) g.ivalues else g.values))
    ginfos;
  {
    work = ctx.work;
    accesses = ctx.accesses;
    barrier_episodes = ctx.barrier_episodes;
    store;
    sched =
      Option.map
        (fun s ->
          {
            Sched.tasks = s.s_tasks_n;
            steals = s.s_steals;
            steal_attempts = s.s_attempts;
            inline_runs = s.s_inline;
          })
        sched_state;
  }

let vars prog = Array.of_list (List.map fst prog.Ast.globals)

let record ?max_steps ?sched prog ~nprocs =
  let trace = Cell_trace.create ~vars:(vars prog) ~nprocs in
  let r = run_cells ?max_steps ?sched prog ~nprocs ~push:(Cell_trace.push trace) in
  (trace, r)

let read_global r name cell =
  match Hashtbl.find_opt r.store name with
  | None -> raise Not_found
  | Some values -> values.(cell)
