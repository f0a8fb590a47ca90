open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
module Solver = Xpiler_smt.Solver
module Vclock = Xpiler_util.Vclock
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics

type outcome =
  | Repaired of { kernel : Kernel.t; tests_run : int; site : string }
  | Gave_up of { reason : string; tests_run : int }

let dedup = Xpiler_util.Listx.dedup

(* constants visible in the program: the context Algorithm 3 harvests *)
let context_constants (k : Kernel.t) =
  Stmt.fold
    (fun acc s ->
      match s with
      | Stmt.Alloc { size; _ } -> size :: acc
      | Stmt.Memcpy { len = Expr.Int n; _ } -> n :: acc
      | Stmt.For { extent = Expr.Int n; _ } -> n :: acc
      | Stmt.Intrinsic { params = Expr.Int n :: _; _ } -> n :: acc
      | _ -> acc)
    [] k.Kernel.body
  |> dedup

let candidate_values ~platform (k : Kernel.t) (site : Site.t) =
  match site with
  | Site.Index _ -> [ -2; -1; 1; 2 ]  (* deltas on the index constant *)
  | Site.Bound { current; _ } ->
    let ctx = context_constants k in
    let raw =
      [ current - 1; current + 1; current - 2; current + 2; current / 2; current * 2 ]
      @ List.filter (fun c -> abs (c - current) <= 8 && c <> current) ctx
    in
    let problem : Solver.problem =
      { vars = [ ("?b", Solver.Enum (dedup raw)) ];
        constraints = [ Expr.Binop (Expr.Gt, Expr.Var "?b", Expr.Int 0) ]
      }
    in
    Solver.solve_all problem |> List.filter_map (List.assoc_opt "?b")
  | Site.Param { current; _ } ->
    let align_c =
      match Site.stmt k site with
      | Some (Stmt.Intrinsic i) when Intrin.is_vector i.op && platform.Platform.vector_align > 1
        ->
        [ Expr.Binop
            ( Expr.Eq,
              Expr.Binop (Expr.Mod, Expr.Var "?p", Expr.Int platform.Platform.vector_align),
              Expr.Int 0 )
        ]
      | Some (Stmt.Intrinsic { op = Intrin.Dp4a; _ }) ->
        [ Expr.Binop (Expr.Eq, Expr.Binop (Expr.Mod, Expr.Var "?p", Expr.Int 4), Expr.Int 0) ]
      | _ -> []
    in
    let ctx = context_constants k in
    let raw =
      ctx
      @ [ current / 2; current * 2; current - 1; current + 1; current - 64; current + 64 ]
    in
    let problem : Solver.problem =
      { vars = [ ("?p", Solver.Enum (dedup (List.filter (fun v -> v > 0 && v <> current) raw))) ];
        constraints = Expr.Binop (Expr.Gt, Expr.Var "?p", Expr.Int 0) :: align_c
      }
    in
    Solver.solve_all ~limit:24 problem |> List.filter_map (List.assoc_opt "?p")

let charge clock stage s = match clock with Some c -> Vclock.charge c stage s | None -> ()

(* candidates must stay structurally well-formed; full platform checking
   happens on the final program (intermediate pipeline states legitimately
   mix source and target features) *)
let compile_ok k = match Validate.check k with Ok () -> true | Error _ -> false

(* ---- wall-clock accounting (bench/repair_bench.ml) ------------------------
   The profiler's rows are the meter: [repair] is the whole call's span, the
   [repair.*] spans below are profiler-only, so the journal never sees them *)

module Prof = Xpiler_obs.Prof

type wall_stats = {
  repairs : int;
  wall_seconds : float;
  localize_seconds : float;
  solve_seconds : float;
  test_seconds : float;
  score_seconds : float;
}

let wall_totals () =
  let wall name = (Prof.row name).Prof.wall_s in
  let whole = Prof.row "repair" in
  { repairs = whole.Prof.count;
    wall_seconds = whole.Prof.wall_s;
    localize_seconds = wall "repair.localize";
    solve_seconds = wall "repair.solve";
    test_seconds = wall "repair.test";
    score_seconds = wall "repair.score"
  }

(* the unit-test executions one repair may spend *)
let max_tests = 200

let repair ?(rounds = 2) ?(static = []) ?clock ~platform ~op ~shape kernel =
  Trace.span ~cat:"phase" "repair" @@ fun () ->
  let total_rounds = rounds in
  let tests = ref 0 in
  let unit_ok k =
    incr tests;
    charge clock Vclock.Unit_test 45.0;
    Prof.span "repair.test" (fun () ->
        Unit_test.check ~trials:1 ~lookups:Localize.lookups op shape k)
    = Unit_test.Pass
  in
  let fully_ok k =
    incr tests;
    charge clock Vclock.Unit_test 90.0;
    Prof.span "repair.test" (fun () ->
        Unit_test.check ~trials:2 ~lookups:Localize.lookups op shape k)
    = Unit_test.Pass
  in
  (* Algorithm 3's inner loop: solve each site's candidate domain in turn
     and test its candidates one at a time; the first that passes wins.
     [on_failed], when given, receives each failing candidate's mismatch
     score (the hill-climb below) *)
  let first_fix ?on_failed k sites =
    let test site value =
      if !tests >= max_tests then None
      else begin
        Trace.count "repair.candidates";
        let candidate = Site.set k site value in
        if not (compile_ok candidate) then None
        else if unit_ok candidate then Some (candidate, site)
        else begin
          Option.iter
            (fun f ->
              f candidate
                (Prof.span "repair.score" (fun () ->
                     Unit_test.mismatch_score ~lookups:Localize.lookups op shape candidate)))
            on_failed;
          None
        end
      end
    in
    List.find_map
      (fun site ->
        charge clock Vclock.Smt_solving 90.0;
        let values = Prof.span "repair.solve" (fun () -> candidate_values ~platform k site) in
        List.find_map (test site) values)
      sites
  in
  let rec round n k last_reason =
    if n <= 0 then Gave_up { reason = last_reason; tests_run = !tests }
    else begin
      Trace.count "repair.rounds";
      Trace.count "repair.localizations";
      charge clock Vclock.Bug_localization 240.0;
      (* fresh localization inputs each round: a fault masked on one input
         draw shows up on another *)
      let report =
        Prof.span "repair.localize" (fun () ->
            Localize.localize ~seed:(20250706 + ((total_rounds - n) * 7717)) ~op ~shape k)
      in
      if report.Localize.failing_buffers = [] && report.Localize.runtime_error = None then
        if fully_ok k then Repaired { kernel = k; tests_run = !tests; site = "none" }
        else round (n - 1) k "divergence not reproduced on localization inputs"
      else if report.Localize.sites = [] then
        Gave_up
          { reason =
              (if report.Localize.unrepairable <> [] then
                 "complex control flow: " ^ String.concat "; " report.Localize.unrepairable
               else "no repair sites in the failing cone");
            tests_run = !tests
          }
      else begin
        (* how wrong is the kernel? several faults may coexist, so repair
           hill-climbs on this score *)
        let base_score =
          Prof.span "repair.score" (fun () ->
              Unit_test.mismatch_score ~lookups:Localize.lookups op shape k)
        in
        let best_partial = ref None in
        (* several faults may coexist: remember the candidate that brings
           the output closest to the reference *)
        let on_failed candidate score =
          match !best_partial with
          | Some (s, _) when s <= score -> ()
          | _ -> if score < base_score then best_partial := Some (score, candidate)
        in
        match first_fix ~on_failed k report.Localize.sites with
        | Some (fixed, site) ->
          if fully_ok fixed then
            Repaired
              { kernel = fixed; tests_run = !tests; site = Site.to_string site }
          else round (n - 1) fixed "single-trial fix did not generalize"
        | None ->
          if !tests >= max_tests then
            Gave_up { reason = "test budget exhausted"; tests_run = !tests }
          else begin
            match !best_partial with
            | Some (_, improved) -> round (n - 1) improved "partial fix did not converge"
            | None -> Gave_up { reason = "no single-constant repair found"; tests_run = !tests }
          end
      end
    end
  in
  (* static fast path: analyzer findings already name the suspect sites, so
     skip the probe run and the dataflow cone (reading a report is ~30
     modelled seconds against 240 for a localization round). Dynamic rounds
     above remain the untouched fallback. *)
  let static_attempt () =
    let report = Localize.of_findings static in
    if report.Localize.sites = [] then None
    else begin
      Trace.count "repair.static_localizations";
      charge clock Vclock.Bug_localization 30.0;
      match first_fix kernel report.Localize.sites with
      | Some (fixed, site) when fully_ok fixed ->
        Some (Repaired { kernel = fixed; tests_run = !tests; site = Site.to_string site })
      | _ -> None
    end
  in
  let attempt () =
    match if static = [] then None else static_attempt () with
    | Some outcome ->
      Trace.count "repair.static_fastpath";
      outcome
    | None -> round rounds kernel "no rounds"
  in
  let outcome =
    try attempt ()
    with Unit_test.Reference_failed m ->
      (* no oracle to repair against *)
      Gave_up { reason = "reference run: " ^ m; tests_run = !tests }
  in
  (match outcome with
  | Repaired { site; tests_run; _ } ->
    Trace.instant ~attrs:[ ("site", site) ] "repair.repaired";
    Trace.observe "repair.tests_run" (float_of_int tests_run)
  | Gave_up { reason; tests_run } ->
    Trace.instant ~attrs:[ ("reason", reason) ] "repair.gave_up";
    Trace.observe "repair.tests_run" (float_of_int tests_run));
  outcome
