open Xpiler_ir

(** Interval bounds for index expressions over loop-variable boxes. *)

type bound = { lo : int; hi : int }  (** inclusive on both ends *)

type env = (string * bound) list

val point : int -> bound

val range : env -> Expr.t -> bound option
(** Sound over-approximation of the expression's value set; [None] when a
    subterm (a load, a float, an unbounded variable) defeats the interval. *)

val to_string : bound -> string
