type decomp = { const : int; terms : (Expr.t * int) list }

let map_children f (e : Expr.t) : Expr.t =
  match e with
  | Expr.Load (b, i) -> Expr.Load (b, f i)
  | Expr.Binop (op, l, r) -> Expr.Binop (op, f l, f r)
  | Expr.Unop (op, x) -> Expr.Unop (op, f x)
  | Expr.Select (c, t, fe) -> Expr.Select (f c, f t, f fe)
  | Expr.Cast (d, x) -> Expr.Cast (d, f x)
  | Expr.Int _ | Expr.Float _ | Expr.Var _ -> e

let rec add_term_pre terms (atom, coeff) =
  match terms with
  | [] -> if coeff = 0 then [] else [ (atom, coeff) ]
  | (a, c) :: rest ->
    if Expr.equal a atom then
      let c' = c + coeff in
      if c' = 0 then rest else (a, c') :: rest
    else (a, c) :: add_term_pre rest (atom, coeff)

(* (x / c) * c + (x % c) = x : re-merge fused-loop index pairs *)
let fold_divmod terms =
  let rec go terms =
    let rec find_pair = function
      | [] -> None
      | (Expr.Binop (Expr.Div, x, Expr.Int c), cd) :: _
        when c > 0 && cd mod c = 0 && cd <> 0 ->
        let k = cd / c in
        let matching (a, cm) =
          match a with
          | Expr.Binop (Expr.Mod, x', Expr.Int c') -> c' = c && Expr.equal x x' && cm = k
          | _ -> false
        in
        if List.exists matching terms then
          Some (Expr.Binop (Expr.Div, x, Expr.Int c), cd, x, c, k)
        else None
      | _ :: rest -> find_pair rest
    in
    match find_pair terms with
    | None -> terms
    | Some (div_atom, cd, x, c, k) ->
      let removed_one_mod = ref false in
      let terms =
        List.filter
          (fun (a, cm) ->
            if Expr.equal a div_atom && cm = cd then false
            else if
              (not !removed_one_mod)
              &&
              match a with
              | Expr.Binop (Expr.Mod, x', Expr.Int c') ->
                c' = c && Expr.equal x x' && cm = k
              | _ -> false
            then begin
              removed_one_mod := true;
              false
            end
            else true)
          terms
      in
      go (add_term_pre terms (x, k))
  in
  go terms

let add_term = add_term_pre

let merge a b = { const = a.const + b.const; terms = List.fold_left add_term a.terms b.terms }
let scale d k = { const = d.const * k; terms = List.filter_map (fun (a, c) -> if c * k = 0 then None else Some (a, c * k)) d.terms }

let rec decompose_norm (e : Expr.t) : decomp =
  match e with
  | Expr.Int n -> { const = n; terms = [] }
  | Expr.Binop (Expr.Add, l, r) -> merge (decompose_norm l) (decompose_norm r)
  | Expr.Binop (Expr.Sub, l, r) -> merge (decompose_norm l) (scale (decompose_norm r) (-1))
  | Expr.Unop (Expr.Neg, x) -> scale (decompose_norm x) (-1)
  | Expr.Binop (Expr.Mul, a, b) -> (
    let da = decompose_norm a and db = decompose_norm b in
    match (da.terms, db.terms) with
    | _, [] -> scale da db.const
    | [], _ -> scale db da.const
    | _ ->
      let atom = Expr.Binop (Expr.Mul, recompose da, recompose db) in
      { const = 0; terms = [ (atom, 1) ] })
  | Expr.Float _ | Expr.Var _ | Expr.Load _ | Expr.Binop _ | Expr.Unop _ | Expr.Select _
  | Expr.Cast _ ->
    { const = 0; terms = [ (map_children normalize e, 1) ] }

and recompose { const; terms } =
  let terms = List.sort (fun (a, _) (b, _) -> Expr.compare a b) (fold_divmod terms) in
  let term_expr (atom, coeff) =
    if coeff = 1 then atom
    else if coeff = -1 then Expr.Unop (Expr.Neg, atom)
    else Expr.Binop (Expr.Mul, atom, Expr.Int coeff)
  in
  match terms with
  | [] -> Expr.Int const
  | t :: rest ->
    let sum =
      List.fold_left (fun acc t -> Expr.Binop (Expr.Add, acc, term_expr t)) (term_expr t) rest
    in
    if const = 0 then sum else Expr.Binop (Expr.Add, sum, Expr.Int const)

and normalize e = Expr.simplify (recompose (decompose_norm e))

let decompose = decompose_norm
let equal_linear a b = Expr.equal (normalize a) (normalize b)

(* With only variable and load atoms, [recompose] builds a sum that
   [Expr.simplify] leaves as it is: a load's index is normalized already,
   no product has a coefficient of 0 or 1, and no two integers meet. So two
   such decompositions normalize alike only with the same constant and the
   same (atom, coefficient) pairs; atoms are distinct within each. *)
let plain_atoms d =
  List.for_all (fun (a, _) -> match a with Expr.Var _ | Expr.Load _ -> true | _ -> false) d.terms

let normal_forms_differ a b =
  plain_atoms a && plain_atoms b
  && (a.const <> b.const
     || List.compare_lengths a.terms b.terms <> 0
     || not
          (List.for_all
             (fun (x, c) -> List.exists (fun (y, c') -> c = c' && Expr.equal x y) b.terms)
             a.terms))

let coeff_of_var v d =
  match List.find_opt (fun (a, _) -> Expr.equal a (Expr.Var v)) d.terms with
  | Some (_, c) -> c
  | None -> 0

let drop_var v d =
  { d with terms = List.filter (fun (a, _) -> not (Expr.equal a (Expr.Var v))) d.terms }

let independent_of v e = not (Expr.contains_var v e)

let match_affine v e =
  let d = decompose e in
  let coeff = coeff_of_var v d in
  let base = recompose (drop_var v d) in
  if independent_of v base then Some (coeff, base) else None
