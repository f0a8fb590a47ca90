(** Domain-local translation state.

    A session value is a slot with an initializer, one copy per domain:
    the first read on a domain runs the initializer, and no other domain
    ever sees that copy. Every translation cache (compile cache, unit-test
    LRUs, solver memo, transposition table, schedule database, corpus
    tables, vendor baselines) and every ambient setting (tracer, solver
    engine) is one, so no table is reachable from two domains and none
    needs a lock.

    The main domain keeps one session across translations. {!fresh} gives
    a piece of work its own: {!Pool.map} runs every task under it, so a
    task sees only what it computes itself, whatever the job count. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** A new session value. Call at module initialization (values are
    registered for {!fresh} and never unregistered). *)

val get : 'a t -> 'a
(** This domain's current value. *)

val set : 'a t -> 'a -> unit

val with_value : 'a t -> 'a -> (unit -> 'b) -> 'b
(** Run the function with the value set, restoring the previous value on
    exit (also by exception). *)

val fresh : (unit -> 'b) -> 'b
(** Run the function with every session value re-initialized, then
    restore the caller's values (also by exception). *)
