(* Interval arithmetic over index expressions.

   The analyzer's cheap path: bound every affine (and mildly non-affine)
   index expression over a box environment of loop-variable ranges. Sums of
   distinct variables are exact; [v / c] and [v % c] of the same variable
   over-approximate, which is sound for the directions we use intervals in
   (proving accesses in-bounds, proving footprints disjoint). Anything the
   interval cannot decide is escalated to the bounded SMT solver. *)

open Xpiler_ir

type bound = { lo : int; hi : int }  (* inclusive *)
type env = (string * bound) list

let point n = { lo = n; hi = n }
let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let rec range (env : env) (e : Expr.t) : bound option =
  match e with
  | Expr.Int n -> Some (point n)
  | Expr.Float _ -> None
  | Expr.Var v -> List.assoc_opt v env
  | Expr.Load _ -> None
  | Expr.Cast (_, x) -> range env x
  | Expr.Select (_, t, f) -> (
    match (range env t, range env f) with
    | Some rt, Some rf -> Some (hull rt rf)
    | _ -> None)
  | Expr.Unop (Expr.Neg, x) ->
    Option.map (fun r -> { lo = -r.hi; hi = -r.lo }) (range env x)
  | Expr.Unop (Expr.Not, _) -> Some { lo = 0; hi = 1 }
  | Expr.Unop (_, _) -> None
  | Expr.Binop (op, a, b) -> (
    match (range env a, range env b) with
    | Some ra, Some rb -> (
      match op with
      | Expr.Add -> Some { lo = ra.lo + rb.lo; hi = ra.hi + rb.hi }
      | Expr.Sub -> Some { lo = ra.lo - rb.hi; hi = ra.hi - rb.lo }
      | Expr.Mul ->
        let ps = [ ra.lo * rb.lo; ra.lo * rb.hi; ra.hi * rb.lo; ra.hi * rb.hi ] in
        Some
          { lo = List.fold_left min max_int ps; hi = List.fold_left max min_int ps }
      | Expr.Div ->
        (* constant positive divisor, non-negative numerator: the only shape
           loop fusion/splitting produces *)
        if rb.lo = rb.hi && rb.lo > 0 && ra.lo >= 0 then
          Some { lo = ra.lo / rb.lo; hi = ra.hi / rb.lo }
        else None
      | Expr.Mod ->
        if rb.lo = rb.hi && rb.lo > 0 && ra.lo >= 0 then
          if ra.hi < rb.lo then Some ra else Some { lo = 0; hi = rb.lo - 1 }
        else None
      | Expr.Min -> Some { lo = min ra.lo rb.lo; hi = min ra.hi rb.hi }
      | Expr.Max -> Some { lo = max ra.lo rb.lo; hi = max ra.hi rb.hi }
      | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.And | Expr.Or
        -> Some { lo = 0; hi = 1 })
    | _ -> None)

(* all free variables of [e] have a known range in [env] *)
let to_string { lo; hi } = Printf.sprintf "[%d, %d]" lo hi
