(** Deterministic pseudo-random number generation.

    All stochastic components of the transcompiler (the neural oracle's fault
    injection, MCTS rollouts, test-input generation) draw from this splittable
    SplitMix64 generator so that every experiment is reproducible from a
    single seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances by one step. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val choose : t -> 'a list -> 'a
(** [choose t xs] picks a uniform element. Raises [Invalid_argument] on []. *)

val choose_weighted : t -> (float * 'a) list -> 'a
(** [choose_weighted t pairs] picks an element with probability proportional
    to its weight. Raises [Invalid_argument] on an empty or zero-weight
    list. *)

val shuffle : t -> 'a list -> 'a list
(** [shuffle t xs] is a uniformly random permutation of [xs]. *)
