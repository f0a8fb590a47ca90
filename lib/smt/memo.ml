(* Process-global solver memo.

   The repair loop re-poses the same finite-domain problems over and over:
   every localization round rebuilds each site's candidate problem, every
   escalation rung re-enters repair on similar kernels, and bench sweeps
   repeat the whole thing across seeds. A solve is pure — outcome and
   models depend only on (problem, budget) — so one table can serve every
   query, exactly like the tuner's transposition table
   (lib/tuning/transposition.ml).

   Determinism contract (the receipts trick): each entry stores the
   canonical [stats] the original search produced. A hit replays those
   stats through the same [Solver.record_query] effect path a fresh solve
   uses, so the emitted charge/trace/metrics stream is a function of the
   query trajectory alone — cold vs. warm runs and jobs=1 vs. jobs=N runs
   are observably byte-identical. Only the registry hit/miss meters below
   (and wall time) reveal that the table exists.

   [max_steps] (and [limit] for model enumeration) are part of the key:
   a [Timeout] under a small budget says nothing about a larger one, so
   budgets never alias. That also makes memoizing [Timeout] and [Unsat]
   outcomes safe — they are as pure as [Sat]. *)

module Metrics = Xpiler_obs.Metrics

(* Stable: solver queries are issued from the master domain only (the
   escalation ladder and synthesis run outside the pool; speculative repair
   parallelizes candidate *testing*, not solving), so hit/miss counts are a
   deterministic function of the workload and stay jobs-invariant. *)
let m_hits =
  Metrics.counter ~help:"solver memo lookups by result" ~labels:[ ("result", "hit") ]
    "xpiler_smt_memo_lookups_total"

let m_misses =
  Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_smt_memo_lookups_total"

let m_entries = Metrics.gauge ~help:"live solver memo entries" "xpiler_smt_memo_entries"

type mode = Solve | Models of { limit : int }

module Key = struct
  type t = { mode : mode; max_steps : int; problem : Problem.t }

  let equal a b = a.mode = b.mode && a.max_steps = b.max_steps && Problem.equal a.problem b.problem

  let hash k =
    let comb = Xpiler_ir.Expr.hash_comb in
    comb (comb (Hashtbl.hash k.mode) k.max_steps) (Problem.hash k.problem)
end

module KTbl = Hashtbl.Make (Key)

type payload =
  | Outcome of Problem.outcome
  | Model_list of (string * int) list list

type entry = { payload : payload; stats : Problem.stats  (** the receipt *) }

(* a repair pass touches a few dozen distinct problems; whole bench sweeps a
   few thousand — same sizing logic as the transposition table *)
let capacity = 65536
let mutex = Mutex.create ()
let table : entry KTbl.t = KTbl.create 256
let enabled = ref true

(* durable-store hook: called outside the mutex on every fresh [store];
   [restore] bypasses it so log replay never echoes back to disk *)
let observer : (Key.t -> entry -> unit) option ref = ref None
let set_observer o = Mutex.protect mutex (fun () -> observer := o)

let set_enabled b = Mutex.protect mutex (fun () -> enabled := b)
let is_enabled () = Mutex.protect mutex (fun () -> !enabled)

let find_locked key =
  match KTbl.find_opt table key with
  | Some e ->
    Metrics.inc m_hits;
    Some e
  | None ->
    Metrics.inc m_misses;
    None

let find ~mode ~max_steps problem =
  Mutex.protect mutex (fun () ->
      if not !enabled then None else find_locked { Key.mode; max_steps; problem })

(* evict arbitrary half rather than resetting (no recency recorded); a reset
   would turn every in-flight repair's next lookups into recomputes at once *)
let evict_half_locked () =
  let keys = KTbl.fold (fun k _ acc -> k :: acc) table [] in
  List.iteri (fun i k -> if i land 1 = 0 then KTbl.remove table k) keys

let store ~mode ~max_steps problem entry =
  let key = { Key.mode; max_steps; problem } in
  let obs =
    Mutex.protect mutex (fun () ->
        if !enabled then begin
          if KTbl.length table >= capacity then evict_half_locked ();
          KTbl.replace table key entry;
          Metrics.set m_entries (float_of_int (KTbl.length table));
          !observer
        end
        else None)
  in
  match obs with Some f -> f key entry | None -> ()

let restore key entry =
  Mutex.protect mutex (fun () ->
      (* capacity still applies, but silently (no eviction effects) *)
      if KTbl.length table >= capacity then evict_half_locked ();
      KTbl.replace table key entry;
      Metrics.set m_entries (float_of_int (KTbl.length table)))

let fold f acc = Mutex.protect mutex (fun () -> KTbl.fold f table acc)

let hits () = Metrics.value m_hits
let misses () = Metrics.value m_misses
let size () = Mutex.protect mutex (fun () -> KTbl.length table)

let clear () =
  Mutex.protect mutex (fun () ->
      KTbl.reset table;
      Metrics.set m_entries 0.0)
