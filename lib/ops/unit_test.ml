open Xpiler_ir
open Xpiler_machine
module Metrics = Xpiler_obs.Metrics
module Trace = Xpiler_obs.Trace
module Lru = Xpiler_util.Lru
module Session = Xpiler_util.Session

type verdict = Pass | Fail of string

exception Reference_failed of string

(* the largest buffer the oracle allocates: 2^24 elements, far above the
   largest Registry buffer (depthwise_conv's 20,736-element input) *)
let max_buffer_elems = 1 lsl 24

let oversized (op : Opdef.t) shape =
  List.find_map
    (fun (b : Opdef.buffer_spec) ->
      let n = b.size shape in
      if n >= 0 && n <= max_buffer_elems then None
      else
        Some
          (Printf.sprintf "buffer %s has %s elements, over the %d-element limit" b.buf_name
             (if n < 0 then "an overflowing number of" else string_of_int n)
             max_buffer_elems))
    op.buffers

let make_args rng (op : Opdef.t) shape =
  Option.iter invalid_arg (oversized op shape);
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

(* ---- metering ---------------------------------------------------------------

   The interpreter emits nothing; the caller that owns a candidate run
   meters its counts here, once per run, whether the run was fresh or
   served by the verdict memo. *)

let meter (stats : Interp.stats) =
  if Trace.enabled () then begin
    Trace.count "interp.runs";
    Trace.count ~n:stats.steps "interp.steps";
    Trace.count ~n:stats.stores "interp.stores";
    Trace.count ~n:stats.intrinsic_elems "interp.intrinsic_elems";
    Trace.count ~n:stats.memcpy_elems "interp.memcpy_elems";
    Trace.count ~n:stats.barriers "interp.barriers"
  end

(* ---- verdict memo ------------------------------------------------------------

   Pipeline validation, ladder retries, repair rounds and baselines keep
   re-testing the same kernels, and the repair localizer probes the trial
   validation has just run; a trial is a pure function of (op, shape, trial
   seed, kernel). Each trial is memoized, keyed by structural kernel
   identity (and physical op identity, as above). An entry keeps the run's
   stats, and every lookup, hit or miss, meters them: journals do not
   depend on the memo. *)

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
  stats : Interp.stats;
  score : int;  (** expected-output elements the kernel gets wrong *)
  error : string option;  (** the runtime error that ended the run *)
  failing : string list;  (** failing outputs; every output on a runtime error *)
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

(* the verdict's tolerance: the score counts exactly the elements that
   make a trial fail, so a passing trial scores 0 *)
let rtol = 1e-3
let atol = 1e-4

(* the one comparison of a finished run: the outputs that differ from the
   reference, in [op]'s buffer order, and how many elements they get wrong *)
let compare_outputs args expected =
  List.fold_right
    (fun (name, e) (failing, score) ->
      let bad =
        match List.assoc_opt name args with
        | Some (Interp.Buf t) -> Tensor.mismatch_count ~rtol ~atol t e
        | _ -> Tensor.length e
      in
      if bad = 0 then (failing, score) else (name :: failing, score + bad))
    expected ([], 0)

let crashed stats m expected =
  { verdict = Fail ("runtime error: " ^ m);
    stats;
    score = max_int;
    error = Some m;
    failing = List.map fst expected
  }

(* Run the kernel on a clone of the trial's inputs. [Error] when argument
   binding fails: nothing ran, so there is nothing to meter or memoize. *)
let execute kernel inputs expected =
  let args = clone inputs in
  match Interp.run_receipt kernel args with
  | exception Interp.Runtime_error m -> Error m
  | { Interp.stats; error = Some m; _ } -> Ok (crashed stats m expected)
  | { Interp.stats; error = None; _ } -> (
    match compare_outputs args expected with
    | [], _ -> Ok { verdict = Pass; stats; score = 0; error = None; failing = [] }
    | (name :: _ as failing), score ->
      let diff =
        match List.assoc_opt name args with
        | Some (Interp.Buf t) -> Tensor.max_abs_diff t (List.assoc name expected)
        | _ -> infinity
      in
      Ok
        { verdict = Fail (Printf.sprintf "output %s diverges (max abs diff %.3g)" name diff);
          stats;
          score;
          error = None;
          failing
        })

(* One trial's memo entry for (op, shape, seed, kernel), looked up before
   running, counted in [lookups] and metered. [Error] when the reference
   run raised. A binding error is an unmetered, unmemoized entry that fails
   every output. *)
let trial ~lookups ~seed (op : Opdef.t) shape kernel khash =
  match reference ~seed op shape with
  | Error m -> Error m
  | Ok (inputs, expected) -> (
    let key = { Memo_key.op; shape; seed; kernel; khash } in
    let memo = Session.get memo in
    let ran e =
      meter e.stats;
      Ok e
    in
    match Memo_lru.find memo key with
    | Some e ->
      Metrics.inc lookups.hit;
      ran e
    | None -> (
      Metrics.inc lookups.miss;
      match execute kernel inputs expected with
      | Ok e ->
        ignore (Memo_lru.replace memo key e);
        ran e
      | Error m -> Ok (crashed (Compile.fresh_stats ()) m expected)))

let default_seed = 20250706
let trial_seed seed i = seed + (i * 7919)

let check ?(trials = 2) ?(seed = default_seed) ?(lookups = pipeline_lookups) op shape kernel =
  let khash = Kernel.hash kernel in
  let rec go i =
    if i >= trials then Pass
    else
      match trial ~lookups ~seed:(trial_seed seed i) op shape kernel khash with
      | Error m -> Fail ("reference run: " ^ m)
      | Ok { verdict = Pass; _ } -> go (i + 1)
      | Ok e -> e.verdict
  in
  go 0

let mismatch_score ?(seed = default_seed) ?(lookups = pipeline_lookups) op shape kernel =
  match trial ~lookups ~seed op shape kernel (Kernel.hash kernel) with
  | Error _ -> max_int
  | Ok e -> e.score

let probe ?(seed = default_seed) ~lookups op shape kernel =
  match trial ~lookups ~seed op shape kernel (Kernel.hash kernel) with
  | Error m -> raise (Reference_failed m)
  | Ok e -> (e.error, e.failing)
