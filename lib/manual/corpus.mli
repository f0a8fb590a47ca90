open Xpiler_ir
open Xpiler_machine

(** The programming manuals of the four platforms.

    One entry per intrinsic / memory scope / parallel built-in, carrying the
    constraint text (operand scopes, alignment granularity) and a usage
    example. Entries are generated from the dialect and platform descriptors
    so the manual is always consistent with what the checker enforces —
    exactly the property the paper's reference annotation relies on. *)

type entry = {
  id : string;
  platform : Platform.id;
  title : string;
  body : string;
  op : Intrin.op option;  (** set for intrinsic entries *)
}

val entries : Platform.id -> entry list
val index : Platform.id -> Bm25.index
(** BM25 index over this platform's manual (memoized). *)

val lookup_op : Platform.id -> Intrin.op -> entry option
val search : Platform.id -> string -> int -> entry list
(** Top-n manual entries for a free-text query. *)
