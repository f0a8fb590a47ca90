open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
module Rewrite = Xpiler_passes.Rewrite
module Solver = Xpiler_smt.Solver
module Vclock = Xpiler_util.Vclock
module Pool = Xpiler_util.Pool
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics

type outcome =
  | Repaired of { kernel : Kernel.t; tests_run : int; site : string }
  | Gave_up of { reason : string; tests_run : int }

let dedup = Xpiler_util.Listx.dedup
let take = Xpiler_util.Listx.take

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

(* the statement a Param/Bound site refers to, for alignment constraints;
   children are visited before their parent so match numbering agrees with
   [Rewrite.rewrite_nth] (which selects on the post-order rebuild), and the
   walk stops as soon as the nth match is found *)
let nth_matching select nth (k : Kernel.t) =
  let exception Found of Stmt.t in
  let count = ref (-1) in
  let check s =
    if select s then begin
      incr count;
      if !count = nth then raise (Found s)
    end
  in
  let rec go_block b = List.iter go_stmt b
  and go_stmt s =
    (match s with
    | Stmt.For r -> go_block r.body
    | Stmt.If r ->
      go_block r.then_;
      go_block r.else_
    | _ -> ());
    check s
  in
  try
    go_block k.Kernel.body;
    None
  with Found s -> Some s

let candidate_values ~platform (k : Kernel.t) (site : Localize.site) =
  match site with
  | Localize.Index_site _ -> [ -2; -1; 1; 2 ]  (* deltas on the index constant *)
  | Localize.Bound_site { current; _ } ->
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
  | Localize.Param_site { nth; current } ->
    let stmt = nth_matching Localize.is_param_site nth k in
    let align_c =
      match stmt with
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

let apply_candidate (k : Kernel.t) (site : Localize.site) value =
  match site with
  | Localize.Param_site { nth; _ } ->
    Kernel.map_body
      (Rewrite.rewrite_nth nth Localize.is_param_site (fun s ->
           match s with
           | Stmt.Intrinsic ({ params = Expr.Int _ :: rest; _ } as i) ->
             Stmt.Intrinsic { i with params = Expr.Int value :: rest }
           | Stmt.Memcpy r -> Stmt.Memcpy { r with len = Expr.Int value }
           | s -> s))
      k
  | Localize.Bound_site { nth; _ } ->
    Kernel.map_body
      (Rewrite.rewrite_nth nth Localize.is_bound_site (fun s ->
           match s with
           | Stmt.For r -> Stmt.For { r with extent = Expr.Int value }
           | s -> s))
      k
  | Localize.Index_site { nth; _ } ->
    Kernel.map_body
      (Rewrite.rewrite_nth nth Localize.is_index_site (fun s ->
           match s with
           | Stmt.Store r ->
             Stmt.Store
               { r with
                 index = Linear.normalize (Expr.Binop (Expr.Add, r.index, Expr.Int value))
               }
           | s -> s))
      k

let charge clock stage s = match clock with Some c -> Vclock.charge c stage s | None -> ()

(* ---- candidate verdict memo ------------------------------------------------

   Repair rounds, ladder retries and repeated bench seeds regenerate the
   same candidate kernels, and both oracles below are pure functions of
   (op, shape, kernel): the per-trial unit-test verdict and the mismatch
   score. Cache them process-globally, keyed by structural kernel identity
   (with physical op identity, like [Unit_test.reference_outputs_seeded],
   so regenerated fuzz ops that reuse a name cannot collide).

   Gated by the same switch as the solver memo ([Memo.set_enabled]) so the
   bench's baseline arm really is the pre-overhaul stack — and bypassed
   while tracing: a fresh run emits interp.* trace counts that a memo hit
   could not replay, and cold-vs-warm journal byte-identity outranks
   speed. Speculative task bodies run under [Trace.without], so candidate
   testing over the pool always qualifies. *)

module VKey = struct
  type t = { trial : int; op : Opdef.t; shape : Opdef.shape; kernel : Kernel.t }

  let equal a b =
    a.trial = b.trial && a.op == b.op && a.shape = b.shape && Kernel.equal a.kernel b.kernel

  let hash a = Hashtbl.hash (a.trial, a.op.Opdef.name, a.shape, Kernel.hash a.kernel)
end

module VTbl = Hashtbl.Make (VKey)

let vmemo_mutex = Mutex.create ()
let vmemo_capacity = 8192
let verdict_tbl : Unit_test.verdict VTbl.t = VTbl.create 256
let score_tbl : int VTbl.t = VTbl.create 256

let reset_verdict_memo () =
  Mutex.protect vmemo_mutex (fun () ->
      VTbl.reset verdict_tbl;
      VTbl.reset score_tbl)

(* hit/miss order races between speculating domains -> unstable class *)
let m_vmemo_hit =
  Metrics.counter ~stable:false ~help:"repair verdict-memo lookups by result"
    ~labels:[ ("result", "hit") ] "xpiler_repair_verdict_memo_lookups_total"

let m_vmemo_miss =
  Metrics.counter ~stable:false ~labels:[ ("result", "miss") ]
    "xpiler_repair_verdict_memo_lookups_total"

let vmemo_cached tbl key compute =
  match Mutex.protect vmemo_mutex (fun () -> VTbl.find_opt tbl key) with
  | Some v ->
    Metrics.inc m_vmemo_hit;
    v
  | None ->
    Metrics.inc m_vmemo_miss;
    let v = compute () in
    Mutex.protect vmemo_mutex (fun () ->
        if VTbl.length tbl >= vmemo_capacity then VTbl.reset tbl;
        VTbl.replace tbl key v);
    v

let vmemo_active () = Xpiler_smt.Memo.is_enabled () && not (Trace.enabled ())

(* equivalent to [Unit_test.check ~trials] — trial [i] draws from seed
   [20250706 + i*7919] and checking stops at the first failing trial —
   but with each trial memoized separately, so a [~trials:2] confirmation
   reuses the winning candidate's [~trials:1] verdict as its first trial *)
let check_cached ~trials op shape kernel =
  if not (vmemo_active ()) then Unit_test.check ~trials op shape kernel
  else begin
    let rec go i =
      if i >= trials then Unit_test.Pass
      else
        let v =
          vmemo_cached verdict_tbl { VKey.trial = i; op; shape; kernel } (fun () ->
              Unit_test.check ~trials:1 ~seed:(20250706 + (i * 7919)) op shape kernel)
        in
        match v with Unit_test.Pass -> go (i + 1) | fail -> fail
    in
    go 0
  end

(* how wrong is a kernel? used to hill-climb when several faults coexist.
   The oracle is the cached seeded reference ([Rng.create 20250706] either
   way), so scoring N candidates costs one serial reference run, not N *)
let mismatch_score_fresh ~op ~shape kernel =
  let args, expected = Unit_test.reference_outputs_seeded ~seed:20250706 op shape in
  match Interp.run kernel args with
  | exception Interp.Runtime_error _ -> max_int
  | _ ->
    List.fold_left
      (fun acc (name, e) ->
        match List.assoc_opt name args with
        | Some (Interp.Buf t) -> acc + List.length (Tensor.mismatched_indices t e)
        | _ -> acc + Tensor.length e)
      0 expected

let mismatch_score ~op ~shape kernel =
  if not (vmemo_active ()) then mismatch_score_fresh ~op ~shape kernel
  else
    vmemo_cached score_tbl { VKey.trial = -1; op; shape; kernel } (fun () ->
        mismatch_score_fresh ~op ~shape kernel)

(* fused trial-0 verdict + mismatch score in one interpreter run (both draw
   on the seed-20250706 reference), populating both memo tables so a later
   [~trials:2] confirmation or hill-climb score re-read hits *)
let eval_scored_cached ~op ~shape kernel =
  if not (vmemo_active ()) then Unit_test.check_scored op shape kernel
  else begin
    let vkey = { VKey.trial = 0; op; shape; kernel } in
    let skey = { VKey.trial = -1; op; shape; kernel } in
    let hit =
      Mutex.protect vmemo_mutex (fun () ->
          match (VTbl.find_opt verdict_tbl vkey, VTbl.find_opt score_tbl skey) with
          | Some v, Some s -> Some (v, s)
          | _ -> None)
    in
    match hit with
    | Some r ->
      Metrics.inc m_vmemo_hit;
      r
    | None ->
      Metrics.inc m_vmemo_miss;
      let v, s = Unit_test.check_scored op shape kernel in
      Mutex.protect vmemo_mutex (fun () ->
          if VTbl.length verdict_tbl >= vmemo_capacity then VTbl.reset verdict_tbl;
          if VTbl.length score_tbl >= vmemo_capacity then VTbl.reset score_tbl;
          VTbl.replace verdict_tbl vkey v;
          VTbl.replace score_tbl skey s);
      (v, s)
  end

(* candidates must stay structurally well-formed; full platform checking
   happens on the final program (intermediate pipeline states legitimately
   mix source and target features) *)
let compile_ok k = match Validate.check k with Ok () -> true | Error _ -> false

(* ---- speculative candidate evaluation -------------------------------------

   One localized site yields a batch of SMT-filtered candidate values; the
   serial engine tests them one by one and stops at the first pass. The
   speculative engine runs the whole batch over [Pool.map] and selects the
   *lowest-index* passing candidate — the same one serial testing would
   have accepted — so the repair result is independent of the schedule.

   Determinism contract:
   - a task may abort only when a success at a *strictly lower* index has
     already been published, so no task at or below the final winning index
     is ever cancelled: every result the replay below reads is complete;
   - task bodies run under [Trace.without] and buffer nothing through the
     pool (worker-side emission order is schedule-dependent); instead they
     return plain result records and the master replays the canonical
     effect stream — candidate counts, test charges, hill-climb updates —
     in index order for exactly the candidates serial testing would have
     attempted (everything up to the winner, or the whole batch on a miss);
   - won/cancelled meters are computed *logically* from the result vector
     (cancelled = batch size - winner - 1), not from which tasks physically
     aborted, so they are jobs-invariant too. *)

type spec_result =
  | Spec_cancelled  (** a lower-index success was already published *)
  | Spec_rejected  (** failed the structural compile check; consumes no test *)
  | Spec_passed of Kernel.t
  | Spec_failed of Kernel.t * int  (** unit test failed; mismatch score, [max_int] if unscored *)

(* Stable: see the determinism contract above — these count logical, not
   physical, cancellations. Batches = won + lost; [cancelled] counts the
   losers above each winning index. *)
let m_spec_won =
  Metrics.counter ~help:"speculative repair batches by result" ~labels:[ ("result", "won") ]
    ~trace:"repair.speculative_won" "xpiler_repair_speculative_total"

let m_spec_lost = Metrics.counter ~labels:[ ("result", "lost") ] "xpiler_repair_speculative_total"

let m_spec_cancelled =
  Metrics.counter ~labels:[ ("result", "cancelled") ] ~trace:"repair.speculative_cancelled"
    "xpiler_repair_speculative_total"

let eval_site_speculative ~jobs ~want_score ~op ~shape k site values =
  let winner = Atomic.make max_int in
  Pool.map ~jobs
    (fun task value ->
      let idx = Pool.index task in
      Trace.without (fun () ->
          if Atomic.get winner < idx then Spec_cancelled
          else begin
            let candidate = apply_candidate k site value in
            if not (compile_ok candidate) then Spec_rejected
            else if Atomic.get winner < idx then Spec_cancelled
            else begin
              match eval_scored_cached ~op ~shape candidate with
              | Unit_test.Pass, _ ->
                let rec publish () =
                  let cur = Atomic.get winner in
                  if idx < cur && not (Atomic.compare_and_set winner cur idx) then publish ()
                in
                publish ();
                Spec_passed candidate
              | Unit_test.Fail _, score ->
                Spec_failed (candidate, if want_score then score else max_int)
            end
          end))
    values

let winner_index results =
  let rec go i = function
    | [] -> None
    | Spec_passed _ :: _ -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 results

let spec_site ~jobs ~clock ~tests ~op ~shape ~want_score ~on_failed k site values =
  let results = eval_site_speculative ~jobs ~want_score ~op ~shape k site values in
  (match winner_index results with
  | Some w ->
    Metrics.inc m_spec_won;
    let cancelled = List.length results - w - 1 in
    if cancelled > 0 then Metrics.inc ~n:cancelled m_spec_cancelled
  | None -> Metrics.inc m_spec_lost);
  (* master-side replay in index order; stops at the winner, so cancelled
     losers (which only ever sit above it) are never replayed *)
  let rec replay = function
    | [] -> None
    | r :: rest ->
      Trace.count "repair.candidates";
      (match r with
      | Spec_rejected | Spec_cancelled -> replay rest
      | Spec_passed candidate ->
        incr tests;
        charge clock Vclock.Unit_test 45.0;
        Some candidate
      | Spec_failed (candidate, score) ->
        incr tests;
        charge clock Vclock.Unit_test 45.0;
        on_failed candidate score;
        replay rest)
  in
  replay results

(* ---- wall-clock accounting (bench/repair_bench.ml) ------------------------ *)

let repair_count = ref 0
let wall_total = ref 0.0
let wall_localize = ref 0.0
let wall_solve = ref 0.0
let wall_test = ref 0.0
let wall_score = ref 0.0

type wall_stats = {
  repairs : int;
  wall_seconds : float;
  localize_seconds : float;
  solve_seconds : float;
  test_seconds : float;
  score_seconds : float;
}

let wall_totals () =
  { repairs = !repair_count;
    wall_seconds = !wall_total;
    localize_seconds = !wall_localize;
    solve_seconds = !wall_solve;
    test_seconds = !wall_test;
    score_seconds = !wall_score
  }

let reset_wall_totals () =
  repair_count := 0;
  wall_total := 0.0;
  wall_localize := 0.0;
  wall_solve := 0.0;
  wall_test := 0.0;
  wall_score := 0.0

(* component meters are master-domain only: speculative task bodies run
   their tests/scores inside the pool, where per-component attribution
   would be schedule-dependent — their cost still lands in [wall_seconds] *)
let timed acc f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> acc := !acc +. (Unix.gettimeofday () -. t0)) f

(* ---------------------------------------------------------------------------- *)

let repair ?(max_tests = 200) ?(rounds = 2) ?(static = []) ?clock ?(speculative = false)
    ?(jobs = 1) ~platform ~op ~shape kernel =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () ->
      incr repair_count;
      wall_total := !wall_total +. (Unix.gettimeofday () -. t0))
  @@ fun () ->
  Trace.span ~cat:"phase" "repair" @@ fun () ->
  let total_rounds = rounds in
  let tests = ref 0 in
  let unit_ok k =
    incr tests;
    charge clock Vclock.Unit_test 45.0;
    timed wall_test (fun () -> check_cached ~trials:1 op shape k) = Unit_test.Pass
  in
  let fully_ok k =
    incr tests;
    charge clock Vclock.Unit_test 90.0;
    timed wall_test (fun () -> check_cached ~trials:2 op shape k) = Unit_test.Pass
  in
  (* evaluate one site's candidate batch; [on_failed] feeds the hill-climb.
     The speculative path clamps the batch to the remaining test budget up
     front (serial testing re-checks the budget per candidate, but cannot
     learn the batch's compile failures in advance), so it can attempt
     slightly fewer candidates than serial testing near exhaustion — never
     more *)
  let eval_site k site values ~want_score ~on_failed =
    if speculative then begin
      let remaining = max_tests - !tests in
      if remaining <= 0 then None
      else
        spec_site ~jobs ~clock ~tests ~op ~shape ~want_score ~on_failed k site
          (take remaining values)
    end
    else
      List.fold_left
        (fun found value ->
          match found with
          | Some _ -> found
          | None ->
            if !tests >= max_tests then None
            else begin
              Trace.count "repair.candidates";
              let candidate = apply_candidate k site value in
              if not (compile_ok candidate) then None
              else if unit_ok candidate then Some candidate
              else begin
                (if want_score then
                   let score = timed wall_score (fun () -> mismatch_score ~op ~shape candidate) in
                   on_failed candidate score);
                None
              end
            end)
        None values
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
        timed wall_localize (fun () ->
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
        let base_score = timed wall_score (fun () -> mismatch_score ~op ~shape k) in
        let best_partial = ref None in
        (* several faults may coexist: remember the candidate that brings
           the output closest to the reference *)
        let on_failed candidate score =
          match !best_partial with
          | Some (s, _) when s <= score -> ()
          | _ -> if score < base_score then best_partial := Some (score, candidate)
        in
        let try_site found site =
          match found with
          | Some _ -> found
          | None ->
            charge clock Vclock.Smt_solving 90.0;
            let values = timed wall_solve (fun () -> candidate_values ~platform k site) in
            match eval_site k site values ~want_score:true ~on_failed with
            | Some fixed -> Some (fixed, site)
            | None -> None
        in
        match List.fold_left try_site None report.Localize.sites with
        | Some (fixed, site) ->
          if fully_ok fixed then
            Repaired
              { kernel = fixed; tests_run = !tests; site = Localize.site_to_string site }
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
     skip the probe-execution binary search entirely (reading a report is
     ~30 modelled seconds against 240 for a localization round). Dynamic
     rounds below remain the untouched fallback. *)
  let static_attempt () =
    let report = Localize.of_findings static in
    if report.Localize.sites = [] then None
    else begin
      Trace.count "repair.static_localizations";
      charge clock Vclock.Bug_localization 30.0;
      let try_site found site =
        match found with
        | Some _ -> found
        | None ->
          charge clock Vclock.Smt_solving 90.0;
          let values = timed wall_solve (fun () -> candidate_values ~platform kernel site) in
          match
            eval_site kernel site values ~want_score:false ~on_failed:(fun _ _ -> ())
          with
          | Some fixed -> Some (fixed, site)
          | None -> None
      in
      match List.fold_left try_site None report.Localize.sites with
      | Some (fixed, site) when fully_ok fixed ->
        Some (Repaired { kernel = fixed; tests_run = !tests; site = Localize.site_to_string site })
      | _ -> None
    end
  in
  let outcome =
    match if static = [] then None else static_attempt () with
    | Some outcome ->
      Trace.count "repair.static_fastpath";
      outcome
    | None -> round rounds kernel "no rounds"
  in
  (match outcome with
  | Repaired { site; tests_run; _ } ->
    Trace.instant ~attrs:[ ("site", site) ] "repair.repaired";
    Trace.observe "repair.tests_run" (float_of_int tests_run)
  | Gave_up { reason; tests_run } ->
    Trace.instant ~attrs:[ ("reason", reason) ] "repair.gave_up";
    Trace.observe "repair.tests_run" (float_of_int tests_run));
  outcome
