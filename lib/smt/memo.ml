(* Session-local solver memo.

   The static analyzer re-poses the same finite-domain problems over and
   over: every escalation rung re-analyzes similar kernels. A solve is
   pure — its outcome depends only on (problem, budget) — so one
   table per session can serve every query. Model enumeration
   ([Solver.solve_all]) is not memoized: its hits never paid for their
   entries end to end. The table is not persisted: it dies with its
   session.

   Determinism contract (the receipts trick): each entry stores the
   canonical [stats] the original search produced. A hit replays those
   stats through the same [Solver.record_query] effect path a fresh solve
   uses, so the emitted charge/trace/metrics stream is a function of the
   query trajectory alone — observably byte-identical whichever
   translation of the session filled an entry first. Only the registry
   hit/miss meters below (and wall time) reveal that the table exists.

   [max_steps] is part of the key: a [Timeout] under a small budget says
   nothing about a larger one, so budgets never alias. That also makes
   memoizing [Timeout] and [Unsat] outcomes safe — they are as pure as
   [Sat]. *)

module Metrics = Xpiler_obs.Metrics

(* A translation issues its solver queries on one domain, in a fixed
   order, against its session's table. *)
let m_hits =
  Metrics.counter ~help:"solver memo lookups by result" ~labels:[ ("result", "hit") ]
    "xpiler_smt_memo_lookups_total"

let m_misses =
  Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_smt_memo_lookups_total"

module Key = struct
  type t = { max_steps : int; problem : Problem.t }

  let equal a b = a.max_steps = b.max_steps && Problem.equal a.problem b.problem
  let hash k = Xpiler_ir.Expr.hash_comb k.max_steps (Problem.hash k.problem)
end

module Table = Xpiler_util.Lru.Make (Key)

type entry = { outcome : Problem.outcome; stats : Problem.stats  (** the receipt *) }

(* a repair pass touches a few dozen distinct problems; a whole sweep in one
   session a few thousand *)
let table : entry Table.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Table.create 65536)

let find ~max_steps problem =
  match Table.find (Xpiler_util.Session.get table) { Key.max_steps; problem } with
  | Some e ->
    Metrics.inc m_hits;
    Some e
  | None ->
    Metrics.inc m_misses;
    None

let store ~max_steps problem entry =
  ignore (Table.replace (Xpiler_util.Session.get table) { Key.max_steps; problem } entry)

let hits () = Metrics.value m_hits
let misses () = Metrics.value m_misses
let size () = Table.length (Xpiler_util.Session.get table)
let clear () = Table.clear (Xpiler_util.Session.get table)
