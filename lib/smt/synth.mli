open Xpiler_ir

(** Symbolic program synthesis on top of the SMT-lite solver.

    Two granularities, matching the paper's Table 3:
    - [fill_holes]: *low-level details* — given a program sketch whose
      unknown constants are holes ([Var "?h"]), small domains per hole, and
      a specification (input/output examples plus side constraints), find an
      assignment. This is fast ("+") and is what SMT-based code repairing
      (Algorithm 3) uses.
    - [enumerate_affine]: *high-level sketches* — enumerate whole candidate
      index expressions from a grammar and check them against examples.
      The search space grows combinatorially ("+++"), which is why
      QiMeng-Xpiler delegates sketch generation to the LLM. *)

val holes_of : Expr.t -> string list

type example = { env : (string * int) list; expected : int }

type result = {
  outcome : Solver.outcome;
  stats : Solver.stats;
}

val fill_holes :
  ?max_steps:int ->
  holes:(string * Solver.domain) list ->
  sketch:Expr.t ->
  examples:example list ->
  ?side_constraints:Expr.t list ->
  unit ->
  result
(** Find hole values such that for every example, [sketch] under
    (example env + holes) evaluates to [expected], and all side constraints
    (over holes and example-independent variables) hold. *)

val apply_model : (string * int) list -> Expr.t -> Expr.t
(** Substitute solved hole values back into the sketch. *)

val enumerate_affine :
  ?max_nodes:int ->
  vars:string list ->
  consts:int list ->
  examples:example list ->
  unit ->
  (Expr.t option * int)
(** Bottom-up enumeration of affine-with-div/mod expressions over [vars] and
    [consts], smallest first, returning the first expression consistent with
    all examples and the number of candidates tried. *)
