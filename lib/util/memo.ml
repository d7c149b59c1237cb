type stats = { hits : int; misses : int; coalesced : int; evictions : int }

let zero = { hits = 0; misses = 0; coalesced = 0; evictions = 0 }

(* Each entry carries its last-use tick; eviction scans for the oldest.
   The scan is linear, which is fine at the capacities used (the trace
   memo's 128 entries), and keeps a hit to one table lookup. *)
type ('k, 'v) t = {
  lock : Mutex.t;
  table : ('k, 'v * int ref) Hashtbl.t;
  capacity : int option;
  flights : ('k, 'v * bool) Singleflight.t;
  mutable tick : int;
  mutable stats : stats;
}

let create ?capacity () =
  (match capacity with
   | Some n when n < 1 -> invalid_arg "Memo.create: capacity must be >= 1"
   | _ -> ());
  {
    lock = Mutex.create ();
    table = Hashtbl.create 32;
    capacity;
    flights = Singleflight.create ();
    tick = 0;
    stats = zero;
  }

let locked t f = Mutex.protect t.lock f

(* under [lock]: a hit refreshes the entry's last use *)
let find t k =
  match Hashtbl.find_opt t.table k with
  | Some (v, last) ->
    t.tick <- t.tick + 1;
    last := t.tick;
    Some v
  | None -> None

(* under [lock] *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k (_, last) acc ->
        match acc with
        | Some (_, best) when best <= !last -> acc
        | _ -> Some (k, !last))
      t.table None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.table k;
      t.stats <- { t.stats with evictions = t.stats.evictions + 1 })
    victim

(* under [lock] *)
let insert t k v =
  (match t.capacity with
   | Some cap ->
     while Hashtbl.length t.table >= cap do
       evict_lru t
     done
   | None -> ());
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table k (v, ref t.tick)

(* under [lock]: each lookup that returns counts as one of these *)
let count_hit t = t.stats <- { t.stats with hits = t.stats.hits + 1 }
let count_miss t = t.stats <- { t.stats with misses = t.stats.misses + 1 }

let count_coalesced t =
  t.stats <- { t.stats with coalesced = t.stats.coalesced + 1 }

(* A lookup that missed.  The flight's leader looks again before
   computing: a flight for [k] may have landed between the caller's
   lookup and this one starting. *)
let fly t k f =
  let flight () =
    let cached =
      locked t (fun () ->
          let r = find t k in
          if Option.is_none r then count_miss t;
          r)
    in
    match cached with
    | Some v -> (v, false)
    | None ->
      let v = f () in
      locked t (fun () -> insert t k v);
      (v, true)
  in
  let (v, computed), role = Singleflight.run t.flights k flight in
  (match (role, computed) with
   | `Led, true -> ()
   | `Led, false -> locked t (fun () -> count_hit t)
   | `Joined, _ -> locked t (fun () -> count_coalesced t));
  v

let hit t k =
  locked t (fun () ->
      let r = find t k in
      if Option.is_some r then count_hit t;
      r)

let get t k f = match hit t k with Some v -> v | None -> fly t k f

let get_all ?jobs t items =
  (* one lock section resolves the hits and picks the distinct misses,
     first occurrence first; a repeated missing key shares that one *)
  let pending = Hashtbl.create 16 in
  let cached, todo =
    locked t (fun () ->
        List.fold_left
          (fun (cached, todo) (k, f) ->
            match find t k with
            | Some v ->
              count_hit t;
              (Some v :: cached, todo)
            | None when Hashtbl.mem pending k ->
              count_coalesced t;
              (None :: cached, todo)
            | None ->
              Hashtbl.add pending k ();
              (None :: cached, (k, f) :: todo))
          ([], []) items)
  in
  let todo = List.rev todo in
  let computed = Hashtbl.create 16 in
  List.iter2
    (fun (k, _) v -> Hashtbl.replace computed k v)
    todo
    (Par.map ?jobs (fun (k, f) -> fly t k f) todo);
  List.map2
    (fun (k, _) hit ->
      match hit with Some v -> v | None -> Hashtbl.find computed k)
    items (List.rev cached)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.tick <- 0;
      t.stats <- zero)

let stats t = locked t (fun () -> t.stats)
