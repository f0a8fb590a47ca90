(* Shared transposition table for the hierarchical auto-tuner.

   MCTS root-parallel batches and repeated searches keep rediscovering the
   same (platform, kernel) states; the reward of a state — its best
   intra-tuned throughput — is pure, so one table can serve every searcher.
   Sharing therefore changes *time*, never values. The observable stream
   (virtual-clock charges, trace counters) must additionally not depend on
   who filled the table first, so entries carry a *receipt*: the canonical
   effect counts the original evaluation emitted. A hit replays the receipt,
   a miss evaluates and then emits the same receipt — the emitted stream is
   a function of the search trajectory alone, so a cold and a pre-populated
   table give byte-identical journals.

   The reward depends on the intra-tuning parameters (candidate budget,
   pruning, composition), so they are part of the key: searches with
   different configurations never alias. *)

open Xpiler_machine
module Metrics = Xpiler_obs.Metrics

(* Registry metrics are unstable: the table is process-global, so whether a
   lookup hits depends on what ran before it, and on the schedule when the
   bench harness runs translations in parallel. The deterministic view of
   the same activity is the receipt-replayed trace counter stream. *)
let m_hits =
  Metrics.counter ~stable:false ~help:"transposition table lookups by result"
    ~labels:[ ("result", "hit") ] "xpiler_transposition_lookups_total"

let m_misses =
  Metrics.counter ~stable:false ~labels:[ ("result", "miss") ] "xpiler_transposition_lookups_total"

let m_evals =
  Metrics.counter ~stable:false ~help:"fresh reward evaluations (sharing on or off)"
    "xpiler_transposition_evals_total"

let m_evictions =
  Metrics.counter ~stable:false ~help:"entries dropped by capacity eviction"
    ~trace:"mcts.tt_evictions" "xpiler_transposition_evictions_total"

let m_entries =
  Metrics.gauge ~stable:false ~help:"live transposition table entries" "xpiler_transposition_entries"

type entry = {
  reward : float;  (** best intra-tuned throughput; 0 for non-compiling states *)
  evaluated : int;  (** intra variants measured by the original evaluation *)
  pruned : int;  (** intra variants skipped by bound-based pruning *)
}

module Key = struct
  type t = {
    platform : Platform.id;
    budget : int;
    prune : bool;
    compose : bool;
    kernel : Xpiler_ir.Kernel.t;
  }

  let equal a b =
    a.platform = b.platform && a.budget = b.budget && a.prune = b.prune
    && a.compose = b.compose
    && Xpiler_ir.Kernel.equal a.kernel b.kernel

  let hash k =
    let comb = Xpiler_ir.Expr.hash_comb in
    comb
      (comb
         (comb (Hashtbl.hash k.platform) k.budget)
         (Hashtbl.hash (k.prune, k.compose)))
      (Xpiler_ir.Kernel.hash k.kernel)
end

module Table = Xpiler_util.Lru.Make (Key)

(* a full search touches a few thousand states *)
let mutex = Mutex.create ()
let table : entry Table.t = Table.create 65536

(* durable-store hook: called outside the mutex on every [store] of a new
   state (worker domains included — the observer must synchronize
   internally); [restore] bypasses it so log replay never echoes back to
   disk *)
let observer : (Key.t -> entry -> unit) option ref = ref None
let set_observer o = Mutex.protect mutex (fun () -> observer := o)

let key ~platform ~budget ~prune ~compose kernel =
  { Key.platform; budget; prune; compose; kernel }

let find ~platform ~budget ~prune ~compose kernel =
  Mutex.protect mutex (fun () ->
      match Table.find table (key ~platform ~budget ~prune ~compose kernel) with
      | Some e ->
        Metrics.inc m_hits;
        Some e
      | None ->
        Metrics.inc m_misses;
        None)

let store ~platform ~budget ~prune ~compose kernel entry =
  let k = key ~platform ~budget ~prune ~compose kernel in
  let evicted, entries, obs =
    Mutex.protect mutex (fun () ->
        (* an entry is a pure function of its key: when searchers race on
           one state, the first store logs it and the rest change nothing,
           so the persisted record count does not depend on the schedule *)
        if Option.is_some (Table.find table k) then (false, Table.length table, None)
        else
          let evicted = Table.replace table k entry in
          (evicted, Table.length table, !observer))
  in
  Metrics.set m_entries (float_of_int entries);
  if evicted then Metrics.inc m_evictions;
  match obs with Some f -> f k entry | None -> ()

let restore k entry =
  let entries =
    Mutex.protect mutex (fun () ->
        (* eviction still applies, but silently: a replay must not emit the
           eviction trace counts the original run never produced *)
        ignore (Table.replace table k entry);
        Table.length table)
  in
  Metrics.set m_entries (float_of_int entries)

let fold f acc = Mutex.protect mutex (fun () -> Table.fold f table acc)

let count_eval () = Metrics.inc m_evals
let size () = Mutex.protect mutex (fun () -> Table.length table)
let hits () = Metrics.value m_hits
let misses () = Metrics.value m_misses
let evals () = Metrics.value m_evals

let clear () =
  Metrics.set m_entries 0.0;
  Mutex.protect mutex (fun () -> Table.clear table)
