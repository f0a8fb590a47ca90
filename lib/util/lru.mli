(** Bounded least-recently-used tables — the one eviction policy of every
    session memo (compile cache, solver memo, unit-test verdict and
    reference caches).

    At capacity, inserting a new key evicts only the least recently used
    entry, so a working set that fits keeps hitting. A full reset at
    capacity would instead turn every lookup after it into a recompute.
    Not synchronized: every table lives in one domain's session
    ({!Session}). *)

module Make (H : Hashtbl.HashedType) : sig
  type 'a t

  val create : int -> 'a t
  (** An empty table holding at most [capacity] entries ([capacity >= 1]). *)

  val find : 'a t -> H.t -> 'a option
  (** The key's value, if present; a hit makes the entry the most recent. *)

  val replace : 'a t -> H.t -> 'a -> bool
  (** Bind the key, making it the most recent; like [Hashtbl.replace],
      the given key replaces an equal one already bound. Evicts the least
      recent entry first when a new key would exceed capacity. Returns
      whether an entry was evicted (never when re-binding a present key). *)

  val fold : (H.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Fold over the live entries, most recent first, without touching
      recency. *)

  val length : 'a t -> int
  val clear : 'a t -> unit
end
