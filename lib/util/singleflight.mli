(** Request coalescing: N concurrent callers asking for the same key run
    the computation once.

    The first caller for a key becomes the {e leader} and runs the thunk;
    everyone else arriving while the leader is still computing becomes a
    {e follower} and blocks until the leader finishes, then shares its
    result (or re-raises its exception).  As soon as the flight lands the
    key is retired, so a later caller starts a fresh flight — this is
    deliberately {e not} a cache: whatever remembers results ({!Memo},
    or the daemon's on-disk store) sits around it, and this module only
    collapses the thundering herd that builds up while a result is being
    produced.

    Keys are compared structurally, as by [Hashtbl].  The group mutex is
    held only for table bookkeeping; leaders compute outside it, and
    followers wait on the flight's own condition variable — coalescing
    never serializes flights for {e different} keys. *)

type ('k, 'a) t

val create : unit -> ('k, 'a) t

val run : ('k, 'a) t -> 'k -> (unit -> 'a) -> 'a * [ `Led | `Joined ]
(** [run t key f] returns [f ()]'s value, tagged [`Led] if this caller
    executed [f] and [`Joined] if it piggybacked on a leader already in
    flight for [key].  If the leader's [f] raises, every caller of the
    flight (leader and followers alike) raises that same exception. *)
