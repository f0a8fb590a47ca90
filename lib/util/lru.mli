(** Bounded least-recently-used tables.

    At capacity, inserting a new key evicts only the least recently used
    entry, so a working set that fits keeps hitting. A full reset at
    capacity would instead turn every lookup after it into a recompute.
    Not synchronized: callers that share a table across domains hold a
    mutex around every call. *)

module Make (H : Hashtbl.HashedType) : sig
  type 'a t

  val create : int -> 'a t
  (** An empty table holding at most [capacity] entries ([capacity >= 1]). *)

  val find : 'a t -> H.t -> 'a option
  (** The key's value, if present; a hit makes the entry the most recent. *)

  val replace : 'a t -> H.t -> 'a -> unit
  (** Bind the key, making it the most recent; evicts the least recent
      entry first when a new key would exceed capacity. *)

  val length : 'a t -> int
  val clear : 'a t -> unit
end
