(* Restored reward entries for the hierarchical auto-tuner.

   Each [Mcts.search] keeps the rewards it evaluates in its own table and
   drops them on return: another search almost never reaches the same
   states (every transposition hit of a tuned sweep falls inside one
   search), so a live table that outlived its search would hold dead
   states. What outlives a search is what the durable store persisted, and
   this table holds exactly that: the entries [Store.load] replayed. Entries carry a
   *receipt*, the effect counts the original evaluation emitted, so a hit
   replays the same stream a fresh evaluation emits.

   The reward depends on whether intra-tuning prunes, so [prune] is part
   of the key: searches with different configurations never alias. The
   candidate budget and composition are constants of {!Intra}. *)

open Xpiler_machine
module Metrics = Xpiler_obs.Metrics

(* Registry metrics are unstable: whether a lookup hits depends on what the
   store restored. The deterministic view of the same activity is the
   receipt-replayed trace counter stream. *)
let m_hits =
  Metrics.counter ~stable:false ~help:"transposition table lookups by result"
    ~labels:[ ("result", "hit") ] "xpiler_transposition_lookups_total"

let m_misses =
  Metrics.counter ~stable:false ~labels:[ ("result", "miss") ] "xpiler_transposition_lookups_total"

let m_evals =
  Metrics.counter ~stable:false ~help:"fresh reward evaluations"
    "xpiler_transposition_evals_total"

type entry = {
  reward : float;  (** best intra-tuned throughput; 0 for non-compiling states *)
  evaluated : int;  (** intra variants measured by the original evaluation *)
  pruned : int;  (** intra variants skipped by bound-based pruning *)
}

module Key = struct
  type t = {
    platform : Platform.id;
    prune : bool;
    kernel : Xpiler_ir.Kernel.t;
  }

  let equal a b =
    a.platform = b.platform && a.prune = b.prune && Xpiler_ir.Kernel.equal a.kernel b.kernel

  let hash k =
    let comb = Xpiler_ir.Expr.hash_comb in
    comb (Hashtbl.hash (k.platform, k.prune)) (Xpiler_ir.Kernel.hash k.kernel)
end

module Table = Xpiler_util.Lru.Make (Key)

let table : entry Table.t Xpiler_util.Session.t =
  Xpiler_util.Session.make (fun () -> Table.create 65536)

(* durable-store hook, process-wide *)
let observer : (Key.t -> entry -> unit) option Atomic.t = Atomic.make None
let set_observer o = Atomic.set observer o

let find ~platform ~prune kernel =
  Table.find (Xpiler_util.Session.get table) { Key.platform; prune; kernel }

let store ~platform ~prune kernel entry =
  match Atomic.get observer with
  | Some f -> f { Key.platform; prune; kernel } entry
  | None -> ()

let restore k entry = ignore (Table.replace (Xpiler_util.Session.get table) k entry)
let fold f acc = Table.fold f (Xpiler_util.Session.get table) acc
let count_lookup ~hit = Metrics.inc (if hit then m_hits else m_misses)
let count_eval () = Metrics.inc m_evals
let size () = Table.length (Xpiler_util.Session.get table)
let hits () = Metrics.value m_hits
let evals () = Metrics.value m_evals
let clear () = Table.clear (Xpiler_util.Session.get table)
