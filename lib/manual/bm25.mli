(** Okapi BM25 ranking over a small document collection.

    Program annotation (Algorithm 1) retrieves the manual entry for each
    identified computation; meta-prompt construction retrieves
    platform-specific implementation examples. *)

type doc = { id : string; text : string }
type index

val build : doc list -> index
(** Documents and queries tokenize to lowercased alphanumeric tokens;
    underscores and [::] split identifiers so [__bang_mlp] matches the
    query "mlp". *)

val top : index -> string -> int -> string list
(** [top idx query n]: the ids of at most [n] documents with a positive
    score, best first. *)
