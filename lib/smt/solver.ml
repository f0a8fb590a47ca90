open Xpiler_ir

(* the public problem vocabulary lives in [Problem] so [Memo] can key on it
   without a dependency cycle; re-export to keep client code unchanged *)
type domain = Problem.domain =
  | Range of { lo : int; hi : int; stride : int }
  | Enum of int list

type problem = Problem.t = { vars : (string * domain) list; constraints : Expr.t list }
type stats = Problem.stats = { steps : int; evals : int }
type outcome = Problem.outcome = Sat of (string * int) list | Unsat | Timeout

let domain_values = Problem.domain_values

(* paired enumeration up to sqrt n: every divisor d <= sqrt n pairs with
   n/d >= sqrt n, so both halves come out ascending and concatenate *)
let divisors n =
  if n <= 0 then invalid_arg "Solver.divisors: non-positive";
  let rec go d small large =
    if d * d > n then List.rev_append small large
    else if n mod d = 0 then
      let q = n / d in
      go (d + 1) (d :: small) (if q = d then large else q :: large)
    else go (d + 1) small large
  in
  go 1 [] []

(* evaluate a constraint under a partial assignment: Some b when all its
   variables are bound, None otherwise *)
let try_eval assignment e =
  match Expr.eval_int (fun x -> List.assoc x assignment) e with
  | v -> Some (v <> 0)
  | exception _ -> None

let forall_range var ~lo ~hi body =
  let rec go i acc =
    if i >= hi then acc
    else
      go (i + 1)
        (Expr.Binop (Expr.And, acc, Expr.subst_var var (Expr.Int i) body))
  in
  if lo >= hi then Expr.Int 1 else go (lo + 1) (Expr.subst_var var (Expr.Int lo) body)

let default_max_steps = 2_000_000

(* ---- naive reference search ----------------------------------------------

   The pre-overhaul engine, retained verbatim: re-materializes domains at
   every visit and re-checks the whole constraint list at every assignment
   step. It is the differential-fuzz oracle for the incremental engine and
   the baseline arm of bench/repair_bench.ml (via [with_engine Naive]). *)

let search_naive ?(max_steps = default_max_steps) problem ~on_model =
  let steps = ref 0 and evals = ref 0 in
  let timeout = ref false in
  let rec assign acc = function
    | [] ->
      let model = List.rev acc in
      let satisfied =
        List.for_all
          (fun c ->
            incr evals;
            match try_eval model c with Some b -> b | None -> false)
          problem.constraints
      in
      satisfied && on_model model
    | (v, dom) :: rest ->
      let values = domain_values dom in
      let continue_search = ref true in
      List.iter
        (fun value ->
          if !continue_search && not !timeout then begin
            incr steps;
            if !steps > max_steps then timeout := true
            else begin
              let acc' = (v, value) :: acc in
              (* prune: any fully-bound constraint that is false kills the branch *)
              let ok =
                List.for_all
                  (fun c ->
                    incr evals;
                    match try_eval acc' c with Some b -> b | None -> true)
                  problem.constraints
              in
              if ok then if assign acc' rest then continue_search := false
            end
          end)
        values;
      not !continue_search
  in
  let found = assign [] problem.vars in
  (found, !timeout, { steps = !steps; evals = !evals })

(* ---- linear refutation ---------------------------------------------------

   A cheap proof that a subtree holds no model. [prepare] keeps the linear
   part of every constraint as clauses over the problem's slots. A clause is
   a disjunction of alternatives, an alternative a conjunction of atoms
   [Σ aⱼ·xⱼ + c rel 0]: a constraint's [&&] splits it into clauses and its
   top-level [||] into alternatives. A comparison whose sides are not linear
   in the slots is dropped. Dropping only weakens the system, so a
   refutation of what is left is a refutation of the problem.

   [refute] takes the slots before [free] as bound and the rest as free
   within their [min, max] domain bounds. It splits each [≠] into [<] and
   [>] and proves every branch empty over the integers. Equalities go first:
   a GCD test, then exact elimination of the variable with the smallest
   coefficient. Fourier–Motzkin elimination then removes the inequalities'
   variables, dividing each new row by its coefficients' gcd and rounding
   its constant toward the tighter bound. Past a cap the check gives up and
   reports "not refuted", which is always sound. *)

type rel = Le | Eq | Ne

(* [a.(0..n-1)] are the slot coefficients, [a.(n)] the constant *)
type atom = { rel : rel; a : int array }
type clause = atom list list

let max_branches = 16 (* ≠ splits and || alternatives tried per check *)
let min_subtree = 16 (* a smaller subtree is cheaper to enumerate than to refute *)
let max_rows = 48 (* Fourier–Motzkin gives up past this many rows *)

(* row entries stay below 2^30 and domain bounds below 2^24, so products
   and slot sums fit in 63 bits and each linear side evaluates exactly *)
let limit = 1 lsl 30
let small x = x > -limit && x < limit
let small_domain d = Array.for_all (fun v -> v > -(1 lsl 24) && v < 1 lsl 24) d

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let cdiv a b = if a <= 0 then -(-a / b) else ((a - 1) / b) + 1

(* [Σ aⱼxⱼ + c] of an expression linear in the slots *)
let linear_row slot n e =
  let d = Linear.decompose e in
  let a = Array.make (n + 1) 0 in
  a.(n) <- d.Linear.const;
  let slot_term (atom, k) =
    match atom with
    | Expr.Var v -> (
      match slot v with
      | Some j ->
        a.(j) <- k;
        true
      | None -> false)
    | _ -> false
  in
  if List.for_all slot_term d.Linear.terms && Array.for_all small a then Some a else None

let negate : Expr.binop -> Expr.binop = function
  | Eq -> Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt | Le -> Gt | Gt -> Le | op -> op

(* [l op r] as one atom; each side is linearized on its own so that its
   evaluation cannot overflow where the atom's difference does not *)
let atom_of slot n (op : Expr.binop) l r =
  match (linear_row slot n l, linear_row slot n r) with
  | Some x, Some y ->
    let d = Array.map2 ( - ) x y in
    let shift k v = v.(n) <- v.(n) + k; v in
    let atom =
      match op with
      | Eq -> Some { rel = Eq; a = d }
      | Ne -> Some { rel = Ne; a = d }
      | Le -> Some { rel = Le; a = d }
      | Lt -> Some { rel = Le; a = shift 1 d }
      | Ge -> Some { rel = Le; a = Array.map ( ~- ) d }
      | Gt -> Some { rel = Le; a = shift 1 (Array.map ( ~- ) d) }
      | _ -> None
    in
    Option.bind atom (fun at -> if Array.for_all small at.a then Some at else None)
  | _ -> None

let is_bool : Expr.t -> bool = function
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) | Unop (Not, _) -> true
  | _ -> false

(* the clauses implied by [e] evaluating to true ([pos]) or to false *)
let rec clauses slot n pos (e : Expr.t) : clause list =
  match e with
  | Binop (And, x, y) when pos -> clauses slot n pos x @ clauses slot n pos y
  | Binop (Or, x, y) when not pos -> clauses slot n pos x @ clauses slot n pos y
  | Binop ((And | Or), _, _) ->
    (* each alternative keeps its disjunct's plain atoms; an alternative
       with none says nothing, and neither does the clause *)
    let alternative d =
      List.concat_map (function [ atoms ] -> atoms | _ -> []) (clauses slot n pos d)
    in
    let alts = List.map alternative (disjuncts pos e) in
    if List.mem [] alts then [] else [ alts ]
  | Binop (Ne, x, Int 0) when is_bool x -> clauses slot n pos x
  | Binop (Eq, x, Int 0) when is_bool x -> clauses slot n (not pos) x
  | Unop (Not, x) -> clauses slot n (not pos) x
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), l, r) ->
    Option.to_list (atom_of slot n (if pos then op else negate op) l r)
    |> List.map (fun at -> [ [ at ] ])
  | e ->
    Option.to_list (atom_of slot n (if pos then Ne else Eq) e (Expr.Int 0))
    |> List.map (fun at -> [ [ at ] ])

and disjuncts pos (e : Expr.t) =
  match e with
  | Binop (Or, x, y) when pos -> disjuncts pos x @ disjuncts pos y
  | Binop (And, x, y) when not pos -> disjuncts pos x @ disjuncts pos y
  | e -> [ e ]

exception Empty

let coeff_gcd n r =
  let g = ref 0 in
  for j = 0 to n - 1 do g := gcd !g (abs r.(j)) done;
  !g

(* divide a [≤ 0] row by its coefficients' gcd, rounding the constant up;
   [None] drops a row that always holds or outgrew [limit] *)
let tighten_le n r =
  let g = coeff_gcd n r in
  if g = 0 then if r.(n) > 0 then raise Empty else None
  else begin
    if g > 1 then begin
      for j = 0 to n - 1 do r.(j) <- r.(j) / g done;
      r.(n) <- cdiv r.(n) g
    end;
    if Array.for_all small r then Some r else None
  end

(* the GCD test: [Σ aⱼxⱼ + c = 0] has an integer solution only if
   gcd(aⱼ) divides c *)
let tighten_eq n r =
  let g = coeff_gcd n r in
  if g = 0 then if r.(n) <> 0 then raise Empty else None
  else if r.(n) mod g <> 0 then raise Empty
  else begin
    if g > 1 then for j = 0 to n do r.(j) <- r.(j) / g done;
    if Array.for_all small r then Some r else None
  end

(* one Fourier–Motzkin step per call, on the variable whose elimination
   adds the fewest rows; returns when nothing is left to eliminate or the
   rows outgrow [max_rows], raises [Empty] on a contradiction *)
let rec eliminate n rows =
  let best = ref (-1) and best_cost = ref max_int in
  for j = 0 to n - 1 do
    let pos = ref 0 and neg = ref 0 in
    List.iter (fun r -> if r.(j) > 0 then incr pos else if r.(j) < 0 then incr neg) rows;
    if !pos + !neg > 0 then begin
      let cost = (!pos * !neg) - !pos - !neg in
      if cost < !best_cost then begin best := j; best_cost := cost end
    end
  done;
  let k = !best in
  if k >= 0 then begin
    let pos, rest = List.partition (fun r -> r.(k) > 0) rows in
    let neg, rest = List.partition (fun r -> r.(k) < 0) rest in
    if List.length rest + (List.length pos * List.length neg) <= max_rows then
      let combined =
        List.concat_map
          (fun p ->
            List.filter_map
              (fun q -> tighten_le n (Array.init (n + 1) (fun j -> (-q.(k) * p.(j)) + (p.(k) * q.(j)))))
              neg)
          pos
      in
      eliminate n (combined @ rest)
  end

let rec eliminate_eqs n eqs les =
  match eqs with
  | [] -> eliminate n les
  | e :: eqs ->
    let k = ref (-1) in
    for j = n - 1 downto 0 do
      if e.(j) <> 0 && (!k < 0 || abs e.(j) <= abs e.(!k)) then k := j
    done;
    let k = !k in
    let s = abs e.(k) in
    let sub r =
      if r.(k) = 0 then r
      else
        let t = if e.(k) > 0 then r.(k) else -r.(k) in
        Array.init (n + 1) (fun j -> (s * r.(j)) - (t * e.(j)))
    in
    eliminate_eqs n
      (List.filter_map (fun r -> tighten_eq n (sub r)) eqs)
      (List.filter_map (fun r -> tighten_le n (sub r)) les)

(* no integer point satisfies [eqs = 0 ∧ les ≤ 0] *)
let empty n eqs les =
  match eliminate_eqs n (List.filter_map (tighten_eq n) eqs) (List.filter_map (tighten_le n) les) with
  | () -> false
  | exception Empty -> true

(* ---- incremental search --------------------------------------------------

   Same search tree, much less work per node:
   - domains are materialized into arrays once per problem (the naive engine
     rebuilt full [Range] lists on every re-visit under a new parent);
   - the environment is a slot-indexed int array instead of a [List.assoc]
     chain probed through an exception handler;
   - constraints are simplified once per problem and indexed by their
     last-bound variable, watched-literal style: binding slot [i]
     evaluates only the constraints that *became* fully bound at [i].
     Constraints bound earlier were already checked true on the ancestor
     step, and later ones would be skipped as partial by the naive engine
     anyway;
   - after a binding passes its constraints, [refute] may prove that the
     free slots below it admit no model under the linear clauses; the
     subtree is then skipped.
   Both cuts remove only subtrees that hold no model, and the values are
   tried in the same order, so outcomes, model sets and model order are
   identical to the naive engine's. [steps] counts the assignment attempts
   the search actually makes, so it is at most the naive count (a query the
   naive engine finishes within [max_steps] cannot time out here) and falls
   with every pruned subtree; [evals] falls with it.

   One deliberate divergence: a fully-bound constraint that *raises* (e.g.
   division by zero) prunes here, where the naive engine kept exploring the
   subtree and rejected every leaf below it. The model set is the same;
   steps under such constraints differ. *)

type prepared = {
  p_names : string array;
  p_domains : int array array;
  p_watched : Expr.t array array;  (** by last-bound slot *)
  p_skipped : int array;  (** constraints a naive step would eval but slot [i] skips *)
  p_slots : (string, int) Hashtbl.t;
  p_const_false : bool;  (** some constant constraint folded to false *)
  p_residual : bool;  (** some constraint mentions a variable outside [vars] *)
  p_clauses : clause list;  (** the linear part, for [refute] *)
  p_bounds : int array list array;
      (** rows [lo - xⱼ ≤ 0] and [xⱼ - hi ≤ 0] of slot [j]'s domain, empty
          when no clause mentions the slot *)
  p_check : bool array;
      (** [p_check.(i)]: after binding slot [i], the subtree below is worth
          refuting (slot [i] occurs in a clause and the subtree holds at
          least [min_subtree] leaves); index [n] is the root *)
}

type substituted = Fails | Holds | Row of (rel * int array)

(* [values.(j)] for the bound slots [j < free]; true when no assignment of
   the free slots satisfies the linear clauses *)
let refute prep values free =
  let n = Array.length prep.p_names in
  (* a ground atom is decided; one whose constant outgrew [limit] is dropped *)
  let subst at =
    let r = Array.make (n + 1) 0 and c = ref at.a.(n) and ground = ref true in
    for j = 0 to n - 1 do
      let k = at.a.(j) in
      if k <> 0 then
        if j < free then c := !c + (k * values.(j))
        else begin
          r.(j) <- k;
          ground := false
        end
    done;
    r.(n) <- !c;
    if !ground then
      if match at.rel with Le -> !c <= 0 | Eq -> !c = 0 | Ne -> !c <> 0 then Holds else Fails
    else if small !c then Row (at.rel, r)
    else Holds
  in
  (* an alternative becomes the options it splits into, each a list of
     [Eq]/[Le] rows; [None] when one of its atoms fails *)
  let rec options = function
    | [] -> Some [ [] ]
    | at :: rest -> (
      match (subst at, options rest) with
      | Fails, _ | _, None -> None
      | Holds, tail -> tail
      | Row (Ne, r), Some tail ->
        let lt = Array.copy r and gt = Array.map ( ~- ) r in
        lt.(n) <- lt.(n) + 1;
        gt.(n) <- gt.(n) + 1;
        Some (List.concat_map (fun t -> [ (Le, lt) :: t; (Le, gt) :: t ]) tail)
      | Row row, Some tail -> Some (List.map (fun t -> row :: t) tail))
  in
  match
    List.fold_left
      (fun acc clause ->
        let alts = List.filter_map options clause in
        if alts = [] then raise Empty
        else if List.exists (List.mem []) alts then acc (* an alternative holds *)
        else List.concat alts :: acc)
      [] prep.p_clauses
  with
  | exception Empty -> true
  | choices ->
    let bounds = List.concat (List.init (n - free) (fun j -> prep.p_bounds.(free + j))) in
    (* choices with one option join every branch; the others multiply the
       branches up to [max_branches], and the rest are dropped *)
    let base, split = List.partition (fun c -> List.length c = 1) (List.rev choices) in
    let base = List.concat_map List.hd base in
    let _, split =
      List.fold_left
        (fun (count, kept) c ->
          let count' = count * List.length c in
          if count' <= max_branches then (count', c :: kept) else (count, kept))
        (1, []) split
    in
    let rec all_empty rows = function
      | [] ->
        let eqs = List.filter_map (fun (rel, r) -> if rel = Eq then Some r else None) rows
        and les = List.filter_map (fun (rel, r) -> if rel = Le then Some r else None) rows in
        empty n eqs (bounds @ les)
      | c :: rest -> List.for_all (fun opt -> all_empty (opt @ rows) rest) c
    in
    all_empty base split

let prepare (problem : problem) =
  let n = List.length problem.vars in
  let p_names = Array.make n "" in
  let p_domains = Array.make n [||] in
  let p_slots = Hashtbl.create (2 * n + 1) in
  List.iteri
    (fun i (name, dom) ->
      p_names.(i) <- name;
      p_domains.(i) <- Array.of_list (domain_values dom);
      Hashtbl.replace p_slots name i)
    problem.vars;
  let watched = Array.make (max n 1) [] in
  let const_false = ref false in
  let residual = ref false in
  (* the bounds behind [limit] hold for up to 64 slots *)
  let linear = Array.for_all small_domain p_domains && n <= 64 in
  let p_clauses = ref [] in
  let n_constraints = List.length problem.constraints in
  List.iter
    (fun c0 ->
      let c = Expr.simplify c0 in
      let last =
        List.fold_left
          (fun acc v ->
            match (acc, Hashtbl.find_opt p_slots v) with
            | Some m, Some i -> Some (max m i)
            | _ -> None)
          (Some (-1)) (Expr.free_vars c)
      in
      match last with
      | None -> residual := true
      | Some (-1) -> (
        (* constant: fold once instead of re-evaluating at every step *)
        match Expr.eval_int (fun _ -> raise Not_found) c with
        | v -> if v = 0 then const_false := true
        | exception _ -> const_false := true)
      | Some i ->
        watched.(i) <- c :: watched.(i);
        if linear then
          p_clauses := List.rev_append (clauses (Hashtbl.find_opt p_slots) n true c) !p_clauses)
    problem.constraints;
  let p_watched = Array.map (fun cs -> Array.of_list (List.rev cs)) watched in
  let p_skipped = Array.map (fun cs -> n_constraints - Array.length cs) p_watched in
  let p_clauses = List.rev !p_clauses in
  let p_occurs =
    Array.init n (fun j -> List.exists (List.exists (List.exists (fun at -> at.a.(j) <> 0))) p_clauses)
  in
  let p_bounds =
    Array.mapi
      (fun j dom ->
        if (not p_occurs.(j)) || dom = [||] then []
        else
          let row k c = Array.init (n + 1) (fun i -> if i = j then k else if i = n then c else 0) in
          [ row (-1) (Array.fold_left min max_int dom); row 1 (-Array.fold_left max min_int dom) ])
      p_domains
  in
  (* [leaves] counts the assignments of slots [i+1 ..], the subtree below [i] *)
  let p_check = Array.make (n + 1) false in
  let leaves = ref 1 in
  for i = n - 1 downto 0 do
    p_check.(i) <- !leaves >= min_subtree && p_occurs.(i);
    leaves := min (1 lsl 40) (!leaves * Array.length p_domains.(i))
  done;
  p_check.(n) <- !leaves >= min_subtree && p_clauses <> [];
  { p_names; p_domains; p_watched; p_skipped; p_slots;
    p_const_false = !const_false; p_residual = !residual; p_clauses; p_bounds; p_check }

let infeasible problem =
  let prep = prepare problem in
  prep.p_const_false || refute prep [||] 0

let search_incremental ?(max_steps = default_max_steps) problem ~on_model =
  let prep = prepare problem in
  let n = Array.length prep.p_names in
  let values = Array.make n 0 in
  if prep.p_const_false || prep.p_residual then (false, false, { steps = 0; evals = 0 }, 0)
  else if n = 0 then (on_model [], false, { steps = 0; evals = 0 }, 0)
  else if prep.p_check.(n) && refute prep values 0 then (false, false, { steps = 0; evals = 0 }, 0)
  else begin
    let lookup name = values.(Hashtbl.find prep.p_slots name) in
    let steps = ref 0 and evals = ref 0 and skipped = ref 0 in
    let timeout = ref false in
    let model () = List.init n (fun j -> (prep.p_names.(j), values.(j))) in
    let rec assign i =
      if i = n then on_model (model ())
      else begin
        let dom = prep.p_domains.(i) in
        let watched = prep.p_watched.(i) in
        let skip_here = prep.p_skipped.(i) in
        let check = prep.p_check.(i) in
        let stop = ref false in
        let k = ref 0 in
        let len = Array.length dom in
        while (not !stop) && (not !timeout) && !k < len do
          incr steps;
          if !steps > max_steps then timeout := true
          else begin
            values.(i) <- dom.(!k);
            let ok =
              Array.for_all
                (fun c ->
                  incr evals;
                  match Expr.eval_int lookup c with
                  | v -> v <> 0
                  | exception _ -> false)
                watched
            in
            skipped := !skipped + skip_here;
            if ok && not (check && refute prep values (i + 1)) then
              if assign (i + 1) then stop := true
          end;
          incr k
        done;
        !stop
      end
    in
    let found = assign 0 in
    (found, !timeout, { steps = !steps; evals = !evals }, !skipped)
  end

(* ---- observability -------------------------------------------------------- *)

module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics

(* The solver runs on the master domain inside the escalation
   ladder, so query counts and step distributions are workload-determined. *)
let m_queries verdict =
  Metrics.counter ~help:"SMT queries by verdict" ~labels:[ ("verdict", verdict) ]
    ~trace:("smt." ^ verdict) "xpiler_smt_queries_total"

let m_sat = m_queries "sat"
let m_unsat = m_queries "unsat"
let m_timeout = m_queries "timeout"

let m_steps =
  Metrics.histogram ~help:"search steps per SMT query"
    ~bounds:[| 1.0; 10.0; 100.0; 1000.0; 10000.0; 100000.0 |] ~trace:"smt.steps"
    "xpiler_smt_steps"

let m_skipped =
  Metrics.counter ~help:"constraint evaluations avoided by last-bound-variable indexing"
    "xpiler_smt_constraints_skipped_total"

(* [smt.queries] first: the journal's event order is queries, verdict, steps *)
let record_query (stats : stats) verdict =
  Trace.count "smt.queries";
  Metrics.inc (match verdict with "sat" -> m_sat | "unsat" -> m_unsat | _ -> m_timeout);
  Metrics.observe m_steps (float_of_int stats.steps)

(* ---- engine selection and fresh-work meters ------------------------------- *)

type engine = Incremental | Naive

let current_engine = Xpiler_util.Session.make (fun () -> Incremental)
let with_engine e f = Xpiler_util.Session.with_value current_engine e f

type work = {
  fresh_solves : int;
  fresh_steps : int;
  fresh_evals : int;
  fresh_wall : float;
}

(* real searches under either engine (memo hits excluded), so the repair
   bench compares baseline and overhauled arms with one meter. A warm memo
   turns fresh searches into hits *)
let m_fresh name help = Metrics.counter ~help name
let m_fresh_solves =
  m_fresh "xpiler_smt_fresh_solves_total" "fresh solver searches (memo hits excluded)"

let m_fresh_steps =
  m_fresh "xpiler_smt_fresh_steps_total" "assignment attempts in fresh solver searches"

let m_fresh_evals =
  m_fresh "xpiler_smt_fresh_evals_total" "constraint evaluations in fresh solver searches"

let work_totals () =
  { fresh_solves = Metrics.value m_fresh_solves;
    fresh_steps = Metrics.value m_fresh_steps;
    fresh_evals = Metrics.value m_fresh_evals;
    fresh_wall = (Xpiler_obs.Prof.row "smt.search").Xpiler_obs.Prof.wall_s
  }

(* ---- public solve entry points -------------------------------------------- *)

let run_search ~max_steps problem ~on_model =
  Xpiler_obs.Prof.span "smt.search" @@ fun () ->
  let found, timeout, stats =
    match Xpiler_util.Session.get current_engine with
    | Naive -> search_naive ~max_steps problem ~on_model
    | Incremental ->
      let found, timeout, stats, skipped = search_incremental ~max_steps problem ~on_model in
      if skipped > 0 then Metrics.inc ~n:skipped m_skipped;
      (found, timeout, stats)
  in
  Metrics.inc m_fresh_solves;
  Metrics.inc ~n:stats.steps m_fresh_steps;
  Metrics.inc ~n:stats.evals m_fresh_evals;
  (found, timeout, stats)

let verdict_of_outcome = function Sat _ -> "sat" | Unsat -> "unsat" | Timeout -> "timeout"

(* the memo only fronts the incremental engine: naive mode exists to model
   the pre-overhaul solver for benches, which must not see warm entries
   (and whose stats under the same key could differ on the raising-
   constraint edge documented above) *)
let memo_active () = Xpiler_util.Session.get current_engine = Incremental

let solve ?(max_steps = default_max_steps) problem =
  let fresh () =
    let result = ref Unsat in
    let found, timeout, stats =
      run_search ~max_steps problem ~on_model:(fun model ->
          result := Sat model;
          true)
    in
    let outcome = if found then !result else if timeout then Timeout else Unsat in
    (outcome, stats)
  in
  let outcome, stats =
    if not (memo_active ()) then fresh ()
    else begin
      match Memo.find ~max_steps problem with
      | Some { Memo.outcome; stats } -> (outcome, stats)
      | None ->
        let outcome, stats = fresh () in
        Memo.store ~max_steps problem { Memo.outcome; stats };
        (outcome, stats)
    end
  in
  record_query stats (verdict_of_outcome outcome);
  (outcome, stats)

(* always a fresh search: model lists are not memoized *)
let solve_all ?(max_steps = default_max_steps) ?(limit = 64) problem =
  let models = ref [] in
  let count = ref 0 in
  let _, _, stats =
    run_search ~max_steps problem ~on_model:(fun model ->
        models := model :: !models;
        incr count;
        !count >= limit)
  in
  let models = List.rev !models in
  record_query stats (if models <> [] then "sat" else "unsat");
  Trace.count ~n:(List.length models) "smt.models";
  models

(* ---- silent reference entry points (differential tests) ------------------- *)

let solve_naive ?max_steps problem =
  let result = ref Unsat in
  let found, timeout, stats =
    search_naive ?max_steps problem ~on_model:(fun model ->
        result := Sat model;
        true)
  in
  ((if found then !result else if timeout then Timeout else Unsat), stats)

let solve_all_naive ?max_steps ?(limit = 64) problem =
  let models = ref [] in
  let count = ref 0 in
  let _, _, stats =
    search_naive ?max_steps problem ~on_model:(fun model ->
        models := model :: !models;
        incr count;
        !count >= limit)
  in
  (List.rev !models, stats)
