(* Meters of the hierarchical auto-tuner's reward lookups.

   Each [Mcts.search] keeps the rewards it evaluates in its own table and
   drops them on return (every transposition hit of a tuned sweep falls
   inside one search), so what remains here is the registry view of that
   table's lookups. A search depends only on its inputs, so the counts are
   stable. *)

module Metrics = Xpiler_obs.Metrics

let m_hits =
  Metrics.counter ~help:"transposition table lookups by result"
    ~labels:[ ("result", "hit") ] "xpiler_transposition_lookups_total"

let m_misses = Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_transposition_lookups_total"
let m_evals = Metrics.counter ~help:"fresh reward evaluations" "xpiler_transposition_evals_total"
let count_lookup ~hit = Metrics.inc (if hit then m_hits else m_misses)
let count_eval () = Metrics.inc m_evals
let hits () = Metrics.value m_hits
let evals () = Metrics.value m_evals
let clear () = ()
