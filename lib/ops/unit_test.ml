open Xpiler_ir
open Xpiler_machine
module Metrics = Xpiler_obs.Metrics
module Trace = Xpiler_obs.Trace
module Lru = Xpiler_util.Lru
module Session = Xpiler_util.Session

type verdict = Pass | Fail of string

exception Reference_failed of string

let make_args rng (op : Opdef.t) shape =
  List.map
    (fun (b : Opdef.buffer_spec) ->
      let size = b.size shape in
      let t =
        if b.is_output then Tensor.create ~dtype:b.dtype size
        else Tensor.random rng ~dtype:b.dtype size
      in
      (b.buf_name, Interp.Buf t))
    op.buffers

let clone args =
  List.map
    (fun (n, a) ->
      match a with Interp.Buf t -> (n, Interp.Buf (Tensor.copy t)) | s -> (n, s))
    args

let out_tensors (op : Opdef.t) args =
  List.filter_map
    (fun (b : Opdef.buffer_spec) ->
      if b.is_output then
        match List.assoc_opt b.buf_name args with
        | Some (Interp.Buf t) -> Some (b.buf_name, t)
        | _ -> None
      else None)
    op.buffers

let reference_outputs rng op shape =
  let args = make_args rng op shape in
  let ref_args = clone args in
  let _ = Interp.run (op.serial shape) ref_args in
  (args, out_tensors op ref_args)

(* ---- reference cache ---------------------------------------------------------

   Reference outputs are deterministic in (op, shape, seed), and the checker
   re-runs the same op/shape/seed for every candidate kernel, so the serial
   reference run is cached. Hits require the *same* [Opdef.t] (physical
   identity): fuzzers build throwaway ops that could reuse a name. A
   reference run that raises is cached as its message. Sized above the
   8-shape suite's 336 (op, shape, trial seed) keys. *)

module Ref_key = struct
  type t = { op : Opdef.t; shape : Opdef.shape; seed : int }

  let equal a b = a.op == b.op && a.seed = b.seed && a.shape = b.shape
  let hash k = Hashtbl.hash (k.op.Opdef.name, k.shape, k.seed)
end

module Ref_lru = Lru.Make (Ref_key)

let ref_capacity = 512

let ref_cache :
    ((string * Interp.arg) list * (string * Tensor.t) list, string) result Ref_lru.t Session.t =
  Session.make (fun () -> Ref_lru.create ref_capacity)

let m_reference_runs =
  Metrics.counter ~help:"serial reference runs (reference cache misses)"
    "xpiler_unit_test_reference_runs_total"

(* the cached inputs and outputs, shared: callers clone before mutating *)
let reference ~seed (op : Opdef.t) shape =
  let key = { Ref_key.op; shape; seed } in
  let cache = Session.get ref_cache in
  match Ref_lru.find cache key with
  | Some r -> r
  | None ->
    Metrics.inc m_reference_runs;
    let r =
      match reference_outputs (Xpiler_util.Rng.create seed) op shape with
      | r -> Ok r
      | exception (Interp.Runtime_error m | Invalid_argument m) -> Error m
    in
    ignore (Ref_lru.replace cache key r);
    r

let reference_outputs_seeded ~seed op shape =
  match reference ~seed op shape with
  | Ok (args, outs) -> (clone args, List.map (fun (n, t) -> (n, Tensor.copy t)) outs)
  | Error m -> raise (Reference_failed m)

(* ---- verdict memo ------------------------------------------------------------

   Pipeline validation, ladder retries, repair rounds and baselines keep
   re-testing the same kernels, and a trial is a pure function of (op,
   shape, trial seed, kernel). Each trial is memoized, keyed by structural
   kernel identity (and physical op identity, as above). An entry keeps the
   run's receipt, so a hit re-emits exactly the [interp.*] counts the run
   emitted and journals do not depend on the memo. Under a tracer an entry
   recorded untraced (no traffic) is a miss: the kernel re-runs and the
   entry is upgraded. *)

module Memo_key = struct
  type t = { op : Opdef.t; shape : Opdef.shape; seed : int; kernel : Kernel.t; khash : int }

  let equal a b =
    a.op == b.op && a.seed = b.seed && a.khash = b.khash && a.shape = b.shape
    && Kernel.equal a.kernel b.kernel

  let hash k = Hashtbl.hash (k.op.Opdef.name, k.shape, k.seed, k.khash)
end

module Memo_lru = Lru.Make (Memo_key)

type entry = {
  verdict : verdict;
  receipt : Interp.receipt;
  mutable score : int option;
      (** expected-output elements the kernel gets wrong; computed with a
          failing verdict, on demand for a passing one *)
}

let memo_capacity = 8192
let memo : entry Memo_lru.t Session.t = Session.make (fun () -> Memo_lru.create memo_capacity)
let reset_memo () = Memo_lru.clear (Session.get memo)

type lookups = { hit : Metrics.counter; miss : Metrics.counter }

let pipeline_lookups =
  { hit =
      Metrics.counter ~help:"unit-test verdict-memo lookups by result"
        ~labels:[ ("result", "hit") ] "xpiler_unit_test_memo_lookups_total";
    miss =
      Metrics.counter ~labels:[ ("result", "miss") ]
        "xpiler_unit_test_memo_lookups_total"
  }

let mismatches args expected =
  List.fold_left
    (fun acc (name, e) ->
      match List.assoc_opt name args with
      | Some (Interp.Buf t) -> acc + Tensor.mismatch_count t e
      | _ -> acc + Tensor.length e)
    0 expected

let judge op args expected =
  let bad =
    List.find_opt
      (fun (name, t) ->
        match List.assoc_opt name expected with
        | Some e -> not (Tensor.allclose ~rtol:1e-3 ~atol:1e-4 t e)
        | None -> true)
      (out_tensors op args)
  in
  match bad with
  | Some (name, t) ->
    let e = List.assoc name expected in
    Fail
      (Printf.sprintf "output %s diverges (max abs diff %.3g)" name (Tensor.max_abs_diff t e))
  | None -> Pass

(* Run the kernel on a clone of the trial's inputs. [Error] when argument
   binding fails: nothing ran and nothing was emitted, so there is nothing
   to memoize either. *)
let execute op kernel inputs expected ~want_score =
  let args = clone inputs in
  match Interp.run_receipt kernel args with
  | exception Interp.Runtime_error m -> Error ("runtime error: " ^ m)
  | receipt -> (
    match receipt.Interp.error with
    | Some m -> Ok { verdict = Fail ("runtime error: " ^ m); receipt; score = Some max_int }
    | None ->
      let verdict = judge op args expected in
      let score =
        if want_score || verdict <> Pass then Some (mismatches args expected) else None
      in
      Ok { verdict; receipt; score })

(* one trial's verdict and score, from the memo entry for (op, shape, seed,
   kernel), looked up before running and counted in [lookups] *)
let trial ~lookups ~want_score ~seed (op : Opdef.t) shape kernel khash =
  match reference ~seed op shape with
  | Error m -> (Fail ("reference run: " ^ m), Some max_int)
  | Ok (inputs, expected) -> (
    let key = { Memo_key.op; shape; seed; kernel; khash } in
    let traced = Trace.enabled () in
    let memo = Session.get memo in
    let hit =
      match Memo_lru.find memo key with
      | Some e when (not traced) || e.receipt.Interp.traffic <> None -> Some e
      | _ -> None
    in
    match hit with
    | Some e ->
      Metrics.inc lookups.hit;
      Interp.replay e.receipt;
      (if want_score && e.score = None then
         (* the receipt was just replayed: the scoring run stays silent *)
         match Trace.without (fun () -> execute op kernel inputs expected ~want_score) with
         | Ok fresh -> e.score <- fresh.score
         | Error _ -> e.score <- Some max_int);
      (e.verdict, e.score)
    | None -> (
      Metrics.inc lookups.miss;
      match execute op kernel inputs expected ~want_score with
      | Error m -> (Fail m, Some max_int)
      | Ok e ->
        ignore (Memo_lru.replace memo key e);
        (e.verdict, e.score)))

let default_seed = 20250706
let trial_seed seed i = seed + (i * 7919)

let check ?(trials = 2) ?(seed = default_seed) ?(lookups = pipeline_lookups) op shape kernel =
  let khash = Kernel.hash kernel in
  let rec go i =
    if i >= trials then Pass
    else
      match trial ~lookups ~want_score:false ~seed:(trial_seed seed i) op shape kernel khash with
      | Pass, _ -> go (i + 1)
      | fail, _ -> fail
  in
  go 0

let check_scored ?(seed = default_seed) ?(lookups = pipeline_lookups) op shape kernel =
  let verdict, score = trial ~lookups ~want_score:true ~seed op shape kernel (Kernel.hash kernel) in
  (verdict, Option.value ~default:max_int score)

let mismatch_score ?seed ?lookups op shape kernel =
  snd (check_scored ?seed ?lookups op shape kernel)
