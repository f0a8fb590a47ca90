(* In-memory schedule database for warm-started MCTS.

   Batch translation workloads keep tuning *similar* kernels: the same
   operator at another shape, or the same structure after a different repair
   path. Their best spec sequences transfer almost verbatim, so we record
   [best_specs] per kernel *signature* — a structural hash of the operator
   and platform with every integer literal wildcarded, so exact shapes do
   not fragment the key space — and replay the recorded prefix as a
   guaranteed-expanded first trajectory in the next search.

   Most-recent-wins on conflict: rewards are not comparable across shapes
   (larger problems model as lower throughput), so "the last search that
   completed" is the only ordering that is meaningful and deterministic. *)

open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass
module Metrics = Xpiler_obs.Metrics

(* Stable: lookups and records happen once per search, against the
   session's table, so the counts are a pure function of the workload. *)
let m_hits =
  Metrics.counter ~help:"schedule DB warm-start lookups by result" ~labels:[ ("result", "hit") ]
    "xpiler_schedule_db_lookups_total"

let m_misses = Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_schedule_db_lookups_total"
let m_records = Metrics.counter ~help:"schedule DB entries recorded" "xpiler_schedule_db_records_total"

type entry = { specs : Pass.spec list; reward : float }

type t = {
  tbl : unit -> (int, entry) Hashtbl.t;  (** the table, resolved per call *)
  (* durable-store hook: called with the signature of every entry a search
     actually records, so the store can append it to its write-ahead log;
     [restore] bypasses it to avoid echoing replayed records back to disk *)
  observer : (int -> entry -> unit) option Atomic.t;
}

let create () =
  let tbl = Hashtbl.create 64 in
  { tbl = (fun () -> tbl); observer = Atomic.make None }

let default =
  let tbl = Xpiler_util.Session.make (fun () -> Hashtbl.create 64) in
  { tbl = (fun () -> Xpiler_util.Session.get tbl); observer = Atomic.make None }

let set_observer t o = Atomic.set t.observer o

(* structural hash with integer literals wildcarded; mirrors Kernel.hash
   but folds every [Int _] (loop extents, indices, alloc sizes, launch
   extents) into one constant tag *)
let comb = Expr.hash_comb

let rec sig_expr h (e : Expr.t) =
  match e with
  | Expr.Int _ -> comb h 0x5157 (* any constant: shapes are not structure *)
  | Expr.Float _ -> comb h 0x464c
  | Expr.Var v -> comb (comb h 1) (Hashtbl.hash v)
  | Expr.Load (b, i) -> sig_expr (comb (comb h 2) (Hashtbl.hash b)) i
  | Expr.Binop (op, l, r) -> sig_expr (sig_expr (comb (comb h 3) (Hashtbl.hash op)) l) r
  | Expr.Unop (op, x) -> sig_expr (comb (comb h 4) (Hashtbl.hash op)) x
  | Expr.Select (c, t, f) -> sig_expr (sig_expr (sig_expr (comb h 5) c) t) f
  | Expr.Cast (dt, x) -> sig_expr (comb (comb h 6) (Hashtbl.hash dt)) x

let rec sig_stmt h (s : Stmt.t) =
  match s with
  | Stmt.For r ->
    let h = comb (comb h 10) (Hashtbl.hash (r.var, r.kind)) in
    sig_block (sig_expr (sig_expr h r.lo) r.extent) r.body
  | Stmt.Let r -> sig_expr (comb (comb h 11) (Hashtbl.hash r.var)) r.value
  | Stmt.Assign r -> sig_expr (comb (comb h 12) (Hashtbl.hash r.var)) r.value
  | Stmt.Store r -> sig_expr (sig_expr (comb (comb h 13) (Hashtbl.hash r.buf)) r.index) r.value
  | Stmt.Alloc r ->
    (* size is a shape artifact: wildcarded like the integer literals *)
    comb (comb h 14) (Hashtbl.hash (r.buf, r.scope, r.dtype))
  | Stmt.If r -> sig_block (sig_block (sig_expr (comb h 15) r.cond) r.then_) r.else_
  | Stmt.Memcpy r ->
    let buf_ref h (b : Intrin.buf_ref) = sig_expr (comb h (Hashtbl.hash b.buf)) b.offset in
    sig_expr (buf_ref (buf_ref (comb h 16) r.dst) r.src) r.len
  | Stmt.Intrinsic i ->
    let buf_ref h (b : Intrin.buf_ref) = sig_expr (comb h (Hashtbl.hash b.buf)) b.offset in
    let h = comb (comb h 17) (Hashtbl.hash i.op) in
    let h = buf_ref h i.dst in
    let h = List.fold_left buf_ref h i.srcs in
    List.fold_left sig_expr h i.params
  | Stmt.Sync -> comb h 18
  | Stmt.Annot r -> comb (comb h 19) (Hashtbl.hash (r.key, r.value))

and sig_block h block = List.fold_left sig_stmt (comb h 20) block

let signature (platform : Platform.id) (k : Kernel.t) =
  let h = comb (Hashtbl.hash platform) (Hashtbl.hash k.Kernel.name) in
  let h =
    List.fold_left
      (fun h (p : Kernel.param) -> comb h (Hashtbl.hash (p.name, p.dtype, p.is_buffer)))
      h k.Kernel.params
  in
  let h = List.fold_left (fun h (ax, _) -> comb h (Hashtbl.hash ax)) (comb h 21) k.Kernel.launch in
  sig_block h k.Kernel.body

let lookup t platform k =
  let r = Option.map (fun e -> e.specs) (Hashtbl.find_opt (t.tbl ()) (signature platform k)) in
  Metrics.inc (match r with Some _ -> m_hits | None -> m_misses);
  r

let record t platform k ~specs ~reward =
  if specs <> [] && reward > 0.0 then begin
    Metrics.inc m_records;
    let s = signature platform k in
    let e = { specs; reward } in
    Hashtbl.replace (t.tbl ()) s e;
    match Atomic.get t.observer with Some f -> f s e | None -> ()
  end

let restore t ~signature entry = Hashtbl.replace (t.tbl ()) signature entry
let fold t f acc = Hashtbl.fold f (t.tbl ()) acc
let size t = Hashtbl.length (t.tbl ())
let clear t = Hashtbl.reset (t.tbl ())
