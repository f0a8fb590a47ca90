(** Linear normalization of index expressions.

    Decomposes an expression into [const + Σ coeff·atom] where atoms are
    non-linear subterms (variables, loads, products of non-constants, …).
    Recombining after merging coefficients cancels terms like
    [(taskId*256 + i) - taskId*256], which the structural simplifier cannot
    see. The cache pass, loop split and the tensorize pattern matcher all
    rely on this. *)

type decomp = { const : int; terms : (Expr.t * int) list }
(** [terms] maps each atom to its integer coefficient; atoms are normalized
    and pairwise distinct. *)

val decompose : Expr.t -> decomp
val recompose : decomp -> Expr.t

val normalize : Expr.t -> Expr.t
(** [recompose ∘ decompose], applied recursively inside atoms. Semantics
    preserving for integer expressions. *)

val equal_linear : Expr.t -> Expr.t -> bool
(** Equality modulo linear arithmetic. *)

val normal_forms_differ : decomp -> decomp -> bool
(** [true] only when the sources' [normalize]s differ (so [equal_linear]
    is false): both decompositions have only variable and load atoms, which
    [Expr.simplify] leaves alone, and their constants or (atom,
    coefficient) pairs differ. [false] decides nothing. *)

val coeff_of_var : string -> decomp -> int
(** Coefficient of the atom [Var v]; 0 when absent. *)

val drop_var : string -> decomp -> decomp
(** Remove the [Var v] term (i.e. evaluate the rest at v = 0). *)

val independent_of : string -> Expr.t -> bool
(** True when the expression does not mention the variable at all. *)

val match_affine : string -> Expr.t -> (int * Expr.t) option
(** [match_affine v e] returns [(coeff, base)] when [e ≡ coeff·v + base] with
    [base] independent of [v]; [None] when [v] occurs inside a non-linear
    atom. *)
