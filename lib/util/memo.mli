(** A process-wide memo: each key is computed once, then served from a
    mutex-protected table, optionally bounded by an LRU capacity.

    A hit is one lock section and one table lookup.  A miss computes
    through {!Singleflight}, so concurrent misses on the same key — from
    threads or from domains — cost one computation; the flight's leader
    looks the key up again before computing, so a caller that missed
    just before the previous flight landed does not compute it twice.
    Computations run outside the lock.  If a computation raises, every
    caller waiting on it raises the same exception and nothing is
    cached: the next lookup computes again.

    Keys are compared structurally, as by [Hashtbl]. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** Unbounded without [capacity]; with it, inserting into a full table
    first evicts the least recently used entry.
    @raise Invalid_argument if [capacity] is below 1. *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [get t k f]: the value cached for [k], or [f ()], cached. *)

val get_all : ?jobs:int -> ('k, 'v) t -> ('k * (unit -> 'v)) list -> 'v list
(** {!get} over a batch, results in input order.  Duplicate keys are
    computed once; the distinct misses fan out on {!Par.map} with up to
    [jobs] domains, and a batch of hits spawns none. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the stats. *)

type stats = {
  hits : int;       (** served from the table *)
  misses : int;     (** computed by this lookup *)
  coalesced : int;  (** shared another lookup's computation *)
  evictions : int;
}

val stats : ('k, 'v) t -> stats
(** Since creation or the last {!clear}.  Every lookup that returns
    counts as exactly one of [hits], [misses] and [coalesced]; a leader
    whose computation raised counts as a miss, its followers not at
    all. *)
