(* Session-local transposition table for the hierarchical auto-tuner.

   Successive searches keep rediscovering the same (platform, kernel)
   states; the reward of a state — its best intra-tuned throughput — is
   pure, so one table per session can serve every search. Sharing therefore
   changes *time*, never values. The observable stream (virtual-clock
   charges, trace counters) must additionally not depend on which search
   filled the table first, so entries carry a *receipt*: the canonical
   effect counts the original evaluation emitted. A hit replays the receipt,
   a miss evaluates and then emits the same receipt — the emitted stream is
   a function of the search trajectory alone, so a cold and a pre-populated
   table give byte-identical journals.

   The reward depends on the intra-tuning parameters (candidate budget,
   pruning, composition), so they are part of the key: searches with
   different configurations never alias. *)

open Xpiler_machine
module Metrics = Xpiler_obs.Metrics

(* Registry metrics are unstable: whether a lookup hits depends on what ran
   before it in the session (or on a store replay). The deterministic view
   of the same activity is the receipt-replayed trace counter stream. *)
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
let table : entry Table.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Table.create 65536)

(* durable-store hook, process-wide: called on every [store] of a new
   state; [restore] bypasses it so log replay never echoes back to disk *)
let observer : (Key.t -> entry -> unit) option Atomic.t = Atomic.make None
let set_observer o = Atomic.set observer o

let key ~platform ~budget ~prune ~compose kernel =
  { Key.platform; budget; prune; compose; kernel }

let find ~platform ~budget ~prune ~compose kernel =
  let k = key ~platform ~budget ~prune ~compose kernel in
  match Table.find (Xpiler_util.Session.get table) k with
  | Some e ->
    Metrics.inc m_hits;
    Some e
  | None ->
    Metrics.inc m_misses;
    None

let store ~platform ~budget ~prune ~compose kernel entry =
  let k = key ~platform ~budget ~prune ~compose kernel in
  if Table.replace (Xpiler_util.Session.get table) k entry then Metrics.inc m_evictions;
  match Atomic.get observer with Some f -> f k entry | None -> ()

(* eviction still applies, but silently: a replay must not emit the
   eviction trace counts the original run never produced *)
let restore k entry = ignore (Table.replace (Xpiler_util.Session.get table) k entry)
let fold f acc = Table.fold f (Xpiler_util.Session.get table) acc
let count_eval () = Metrics.inc m_evals
let size () = Table.length (Xpiler_util.Session.get table)
let hits () = Metrics.value m_hits
let evals () = Metrics.value m_evals
let clear () = Table.clear (Xpiler_util.Session.get table)
