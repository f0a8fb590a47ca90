(* Shared transposition table for the hierarchical auto-tuner.

   MCTS root-parallel batches and repeated searches keep rediscovering the
   same (platform, kernel) states; the reward of a state — its best
   intra-tuned throughput — is pure, so one table can serve every searcher.
   Sharing therefore changes *time*, never values. The observable stream
   (virtual-clock charges, trace counters) must additionally not depend on
   who filled the table first, so entries carry a *receipt*: the canonical
   effect counts the original evaluation emitted. A hit replays the receipt,
   a miss evaluates and then emits the same receipt — the emitted stream is
   a function of the search trajectory alone, which is what preserves the
   byte-identical [--jobs] determinism guarantee.

   The reward depends on the intra-tuning parameters (candidate budget,
   pruning, composition), so they are part of the key: searches with
   different configurations never alias. *)

open Xpiler_machine
module Metrics = Xpiler_obs.Metrics

(* Registry metrics are unstable: lookups run inside pooled worker domains,
   so which searcher sees a hit vs. a miss depends on the schedule. The
   deterministic view of the same activity is the receipt-replayed trace
   counter stream. *)
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

module KTbl = Hashtbl.Make (Key)

(* sized like the intra memos: a full search touches a few thousand states *)
let capacity = 65536
let mutex = Mutex.create ()
let table : entry KTbl.t = KTbl.create 1024

(* durable-store hook: called outside the mutex on every fresh [store]
   (worker domains included — the observer must synchronize internally);
   [restore] bypasses it so log replay never echoes back to disk *)
let observer : (Key.t -> entry -> unit) option ref = ref None
let set_observer o = Mutex.protect mutex (fun () -> observer := o)

let key ~platform ~budget ~prune ~compose kernel =
  { Key.platform; budget; prune; compose; kernel }

let find ~platform ~budget ~prune ~compose kernel =
  Mutex.protect mutex (fun () ->
      match KTbl.find_opt table (key ~platform ~budget ~prune ~compose kernel) with
      | Some e ->
        Metrics.inc m_hits;
        Some e
      | None ->
        Metrics.inc m_misses;
        None)

(* evict half (arbitrary members; the table records no recency) rather than
   resetting: a reset would turn every live searcher's next lookups into
   recomputes at once *)
let evict_half_locked () =
  let keys = KTbl.fold (fun k _ acc -> k :: acc) table [] in
  let dropped = ref 0 in
  List.iteri
    (fun i k ->
      if i land 1 = 0 then begin
        KTbl.remove table k;
        incr dropped
      end)
    keys;
  !dropped

let store ~platform ~budget ~prune ~compose kernel entry =
  let k = key ~platform ~budget ~prune ~compose kernel in
  let dropped, entries, obs =
    Mutex.protect mutex (fun () ->
        let dropped = if KTbl.length table >= capacity then evict_half_locked () else 0 in
        KTbl.replace table k entry;
        (dropped, KTbl.length table, !observer))
  in
  Metrics.set m_entries (float_of_int entries);
  if dropped > 0 then Metrics.inc ~n:dropped m_evictions;
  match obs with Some f -> f k entry | None -> ()

let restore k entry =
  let entries =
    Mutex.protect mutex (fun () ->
        (* capacity still applies, but silently: a replay must not emit the
           eviction trace counts the original run never produced *)
        if KTbl.length table >= capacity then ignore (evict_half_locked ());
        KTbl.replace table k entry;
        KTbl.length table)
  in
  Metrics.set m_entries (float_of_int entries)

let fold f acc = Mutex.protect mutex (fun () -> KTbl.fold f table acc)

let count_eval () = Metrics.inc m_evals
let size () = Mutex.protect mutex (fun () -> KTbl.length table)
let hits () = Metrics.value m_hits
let misses () = Metrics.value m_misses
let evals () = Metrics.value m_evals

let clear () =
  Metrics.set m_entries 0.0;
  Mutex.protect mutex (fun () -> KTbl.reset table)
