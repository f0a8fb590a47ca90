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
   the baseline arm of bench/repair_bench.ml (via [set_engine `Naive]). *)

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

(* ---- incremental search --------------------------------------------------

   Same search tree, much less work per node:
   - domains are materialized into arrays once per problem (the naive engine
     rebuilt full [Range] lists on every re-visit under a new parent);
   - the environment is a slot-indexed int array instead of a [List.assoc]
     chain probed through an exception handler;
   - constraints are simplified once (shared across the near-identical
     problems a repair pass builds, via a process-global cache) and indexed
     by their last-bound variable, watched-literal style: binding slot [i]
     evaluates only the constraints that *became* fully bound at [i].
     Constraints bound earlier were already checked true on the ancestor
     step, and later ones would be skipped as partial by the naive engine
     anyway, so pruning decisions — and hence outcomes, model sets and
     model order — are identical. [steps] counts the same assignment
     attempts, keeping [max_steps]/[Timeout] behaviour aligned; only
     [evals] shrinks.

   One deliberate divergence: a fully-bound constraint that *raises* (e.g.
   division by zero) prunes here, where the naive engine kept exploring the
   subtree and rejected every leaf below it. The model set is the same;
   steps under such constraints differ. *)

module Simp_cache = Xpiler_util.Lru.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Expr.hash
end)

(* once-per-pass simplification shared across candidate holes: the repairer
   poses the same alignment/positivity constraints for every candidate site
   of a kernel, so this cache turns N simplify passes into 1 *)
let simp_mutex = Mutex.create ()
let simp_cache : Expr.t Simp_cache.t = Simp_cache.create 8192

let simplify_shared e =
  Mutex.protect simp_mutex (fun () ->
      match Simp_cache.find simp_cache e with
      | Some s -> s
      | None ->
        let s = Expr.simplify e in
        ignore (Simp_cache.replace simp_cache e s);
        s)

type prepared = {
  p_names : string array;
  p_domains : int array array;
  p_watched : Expr.t array array;  (** by last-bound slot *)
  p_skipped : int array;  (** constraints a naive step would eval but slot [i] skips *)
  p_slots : (string, int) Hashtbl.t;
  p_const_false : bool;  (** some constant constraint folded to false *)
  p_residual : bool;  (** some constraint mentions a variable outside [vars] *)
}

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
  let n_constraints = List.length problem.constraints in
  List.iter
    (fun c0 ->
      let c = simplify_shared c0 in
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
      | Some i -> watched.(i) <- c :: watched.(i))
    problem.constraints;
  let p_watched = Array.map (fun cs -> Array.of_list (List.rev cs)) watched in
  let p_skipped = Array.map (fun cs -> n_constraints - Array.length cs) p_watched in
  { p_names; p_domains; p_watched; p_skipped; p_slots;
    p_const_false = !const_false; p_residual = !residual }

let search_incremental ?(max_steps = default_max_steps) problem ~on_model =
  let prep = prepare problem in
  let n = Array.length prep.p_names in
  if prep.p_const_false || prep.p_residual then (false, false, { steps = 0; evals = 0 }, 0)
  else if n = 0 then (on_model [], false, { steps = 0; evals = 0 }, 0)
  else begin
    let values = Array.make n 0 in
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
            if ok then if assign (i + 1) then stop := true
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

(* Stable: the solver runs on the master domain inside the escalation
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

let current_engine = ref Incremental
let set_engine e = current_engine := e
let engine () = !current_engine

type work = {
  fresh_solves : int;
  fresh_steps : int;
  fresh_evals : int;
  fresh_wall : float;
}

(* counts real searches under either engine (memo hits excluded), so the
   repair bench compares baseline and overhauled arms with one meter —
   mirroring the transposition table's [Transposition.evals] *)
let w_solves = ref 0
let w_steps = ref 0
let w_evals = ref 0
let w_wall = ref 0.0

let note_fresh (s : stats) =
  incr w_solves;
  w_steps := !w_steps + s.steps;
  w_evals := !w_evals + s.evals

let work_totals () =
  { fresh_solves = !w_solves;
    fresh_steps = !w_steps;
    fresh_evals = !w_evals;
    fresh_wall = !w_wall
  }

let reset_work_totals () =
  w_solves := 0;
  w_steps := 0;
  w_evals := 0;
  w_wall := 0.0

(* ---- public solve entry points -------------------------------------------- *)

let run_search ~max_steps problem ~on_model =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> w_wall := !w_wall +. (Unix.gettimeofday () -. t0))
  @@ fun () ->
  match !current_engine with
  | Naive ->
    let found, timeout, stats = search_naive ~max_steps problem ~on_model in
    note_fresh stats;
    (found, timeout, stats)
  | Incremental ->
    let found, timeout, stats, skipped = search_incremental ~max_steps problem ~on_model in
    note_fresh stats;
    if skipped > 0 then Metrics.inc ~n:skipped m_skipped;
    (found, timeout, stats)

let verdict_of_outcome = function Sat _ -> "sat" | Unsat -> "unsat" | Timeout -> "timeout"

(* the memo only fronts the incremental engine: naive mode exists to model
   the pre-overhaul solver for benches, which must not see warm entries
   (and whose stats under the same key could differ on the raising-
   constraint edge documented above) *)
let memo_active () = !current_engine = Incremental

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
      match Memo.find ~mode:Memo.Solve ~max_steps problem with
      | Some { Memo.payload = Outcome outcome; stats } -> (outcome, stats)
      | Some { Memo.payload = Model_list _; _ } | None ->
        let outcome, stats = fresh () in
        Memo.store ~mode:Memo.Solve ~max_steps problem { Memo.payload = Outcome outcome; stats };
        (outcome, stats)
    end
  in
  record_query stats (verdict_of_outcome outcome);
  (outcome, stats)

let solve_all ?(max_steps = default_max_steps) ?(limit = 64) problem =
  let fresh () =
    let models = ref [] in
    let count = ref 0 in
    let _, _, stats =
      run_search ~max_steps problem ~on_model:(fun model ->
          models := model :: !models;
          incr count;
          !count >= limit)
    in
    (List.rev !models, stats)
  in
  let mode = Memo.Models { limit } in
  let models, stats =
    if not (memo_active ()) then fresh ()
    else begin
      match Memo.find ~mode ~max_steps problem with
      | Some { Memo.payload = Model_list models; stats } -> (models, stats)
      | Some { Memo.payload = Outcome _; _ } | None ->
        let models, stats = fresh () in
        Memo.store ~mode ~max_steps problem { Memo.payload = Model_list models; stats };
        (models, stats)
    end
  in
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
