(** List helpers shared by the tuner's candidate enumerators. *)

val take : int -> 'a list -> 'a list
(** First [n] elements ([] when [n <= 0]); total, unlike [List.filteri]-based
    variants it stops walking at [n]. *)

val dedup : 'a list -> 'a list
(** Order-preserving deduplication: the first occurrence of each element is
    kept, later duplicates dropped. O(n) via structural hashing — replaces
    the quadratic [List.mem]-plus-append folds that used to be re-derived at
    every call site. Elements must be hashable/comparable structurally (no
    functions or cyclic values). *)

val top_k : k:int -> score:('a -> float) -> 'a list -> 'a list
(** The [k] highest-scoring elements, best first: [take k] of the list
    stably sorted by descending score. One pass keeps the best [k] without
    sorting, and ties keep input order — callers relying on deterministic
    candidate streams can use it freely. *)
