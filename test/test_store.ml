(* Durable-store guarantees: a record stream appended to the log replays
   back into the in-memory tables bit-for-bit, effect receipts included
   (QCheck property); compaction preserves content exactly while keeping
   one record per key; a torn tail loads as the valid prefix and is
   repaired before the next append; a corrupt frame cuts the log at that
   frame and a corrupt header loads nothing, never an error; a log in the
   previous format loads nothing and is rewritten on the next append; a
   failing append detaches the store without raising; a leftover compaction file
   is never read; a pool task sees none of its caller's cached entries; and
   tuned translations run on the domain pool give the same results, stable
   metrics and persisted state at any job count, from a cold start.
   `dune build @store` runs just this suite; it is also attached to
   `dune runtest`. *)

open Xpiler_machine
open Xpiler_ir
module Rng = Xpiler_util.Rng
module Kgen = Test_support.Kgen
module Problem = Xpiler_smt.Problem
module Memo = Xpiler_smt.Memo
module Transposition = Xpiler_tuning.Transposition
module Wal = Xpiler_store.Wal
module Store = Xpiler_store.Store
module Registry = Xpiler_ops.Registry
module Opdef = Xpiler_ops.Opdef

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xpiler-store-test-%d" (Unix.getpid ()))

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat root (string_of_int !n)

let ok_exn = function Ok v -> v | Error m -> Alcotest.fail m

let clear_tables () =
  Transposition.clear ();
  Memo.clear ()

let pid = Platform.bang.Platform.id

(* ---- record generation ---------------------------------------------------

   Small key spaces on purpose: colliding keys exercise the last-wins
   replay/compaction semantics, not just plain accumulation. *)

let gen_kernel rng = Kgen.kernel (Rng.create (100 + Rng.int rng 6))

let gen_problem rng =
  let var = Rng.choose rng [ "x"; "y"; "len" ] in
  { Problem.vars = [ (var, Problem.Range { lo = 0; hi = 4 + Rng.int rng 8; stride = 1 }) ];
    constraints = [ Expr.Var var ]
  }

let gen_payload rng =
  match Rng.int rng 4 with
  | 0 -> Memo.Outcome (Problem.Sat [ ("x", Rng.int rng 9) ])
  | 1 -> Memo.Outcome Problem.Unsat
  | 2 -> Memo.Outcome Problem.Timeout
  | _ -> Memo.Model_list [ [ ("x", Rng.int rng 9) ]; [ ("x", 9 + Rng.int rng 9) ] ]

let gen_record rng =
  match Rng.int rng 2 with
  | 0 ->
    Store.Transposition
      ( { Transposition.Key.platform = pid;
          budget = 4 + Rng.int rng 3;
          prune = Rng.bernoulli rng 0.5;
          compose = Rng.bernoulli rng 0.5;
          kernel = gen_kernel rng
        },
        { Transposition.reward = float_of_int (Rng.int rng 64) /. 8.0;
          evaluated = Rng.int rng 50;
          pruned = Rng.int rng 50
        } )
  | _ ->
    Store.Solver_memo
      ( { Memo.Key.mode =
            (if Rng.bernoulli rng 0.5 then Memo.Solve else Memo.Models { limit = 1 + Rng.int rng 4 });
          max_steps = 100 * (1 + Rng.int rng 3);
          problem = gen_problem rng
        },
        { Memo.payload = gen_payload rng; stats = { Problem.steps = Rng.int rng 200; evals = Rng.int rng 500 } } )

let gen_records rng n =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (gen_record rng :: acc) in
  go n []

(* the expected final table contents: last-wins over the stream, computed
   independently of the store with the modules' own key equalities *)
let upsert equal k v l = (k, v) :: List.filter (fun (k', _) -> not (equal k k')) l

let expected records =
  let trans, memo =
    List.fold_left
      (fun (t, m) r ->
        match r with
        | Store.Transposition (k, e) -> (upsert Transposition.Key.equal k e t, m)
        | Store.Solver_memo (k, e) -> (t, upsert Memo.Key.equal k e m))
      ([], []) records
  in
  (List.sort compare trans, List.sort compare memo)

let dump_tables () =
  ( List.sort compare (Transposition.fold (fun k e acc -> (k, e) :: acc) []),
    List.sort compare (Memo.fold (fun k e acc -> (k, e) :: acc) []) )

let load_fresh store =
  clear_tables ();
  Store.load store

(* ---- WAL round-trip property --------------------------------------------- *)

let prop_roundtrip seed =
  let rng = Rng.create seed in
  let records = gen_records rng (1 + Rng.int rng 40) in
  let store = ok_exn (Store.open_store ~dir:(fresh_dir ()) ()) in
  List.iter (Store.append store) records;
  let exp = expected records in
  (* replay reconstructs the tables bit-for-bit, receipts included *)
  let stats = load_fresh store in
  if stats.Store.torn_tails <> 0 || stats.Store.dropped <> 0 then
    QCheck.Test.fail_report "clean store reported damage";
  if Store.total stats.Store.loaded <> List.length records then
    QCheck.Test.fail_report "replay count mismatch";
  if dump_tables () <> exp then QCheck.Test.fail_report "replayed tables differ from the stream";
  (* two loads of the same store fingerprint identically *)
  let fp1 = Store.fingerprint () in
  ignore (load_fresh store);
  if Store.fingerprint () <> fp1 then QCheck.Test.fail_report "reload changed fingerprint";
  (* compaction keeps one record per key without changing content *)
  let cs = ok_exn (Store.compact store) in
  if cs.Store.records_in <> List.length records then
    QCheck.Test.fail_report "compaction lost input records";
  let stats3 = load_fresh store in
  if Store.total stats3.Store.loaded <> cs.Store.records_out then
    QCheck.Test.fail_report "compacted replay count differs from compaction output";
  if dump_tables () <> exp then QCheck.Test.fail_report "compaction changed table contents";
  if Store.fingerprint () <> fp1 then
    QCheck.Test.fail_report "compaction changed fingerprint";
  let info = Store.scan store in
  Store.total info.Store.records = cs.Store.records_out && not info.Store.damaged

let roundtrip_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"wal roundtrip reconstructs tables"
       QCheck.(int_bound 1_000_000)
       prop_roundtrip)

(* ---- torn tails ----------------------------------------------------------- *)

let flip_byte path pos =
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_torn_tail () =
  let rng = Rng.create 42 in
  let records = gen_records rng 8 in
  let dir = fresh_dir () in
  let store = ok_exn (Store.open_store ~dir ()) in
  List.iter (Store.append store) records;
  Store.close store;
  (* crash mid-append: cut into the last frame *)
  let wal = Filename.concat dir "store.wal" in
  let size = (Unix.stat wal).Unix.st_size in
  Wal.truncate wal (size - 3);
  let stats = load_fresh store in
  Alcotest.(check int) "one torn tail" 1 stats.Store.torn_tails;
  Alcotest.(check int) "valid prefix replayed" 7 (Store.total stats.Store.loaded);
  let prefix = List.filteri (fun i _ -> i < 7) records in
  Alcotest.(check bool) "prefix contents exact" true (dump_tables () = expected prefix);
  (* the next append repairs the tail before writing after it *)
  let extra = gen_record rng in
  Store.append store extra;
  let stats2 = load_fresh store in
  Alcotest.(check int) "repaired" 0 stats2.Store.torn_tails;
  Alcotest.(check int) "prefix plus the new record" 8 (Store.total stats2.Store.loaded);
  Alcotest.(check bool) "repaired contents exact" true
    (dump_tables () = expected (prefix @ [ extra ]))

(* ---- frame and header corruption ---------------------------------------- *)

let test_corrupt_frame () =
  let rng = Rng.create 7 in
  let records = gen_records rng 6 in
  let dir = fresh_dir () in
  let store = ok_exn (Store.open_store ~dir ()) in
  List.iter (Store.append store) records;
  Store.close store;
  let wal = Filename.concat dir "store.wal" in
  (* a flipped payload byte fails that frame's checksum: the log loads as
     the frames before it *)
  flip_byte wal ((Unix.stat wal).Unix.st_size - 1);
  let stats = load_fresh store in
  Alcotest.(check int) "cut counted" 1 stats.Store.torn_tails;
  Alcotest.(check int) "valid prefix replayed" 5 (Store.total stats.Store.loaded);
  Alcotest.(check bool) "prefix contents exact" true
    (dump_tables () = expected (List.filteri (fun i _ -> i < 5) records));
  (* a smashed header leaves no valid prefix: the store loads empty *)
  flip_byte wal 0;
  let stats2 = load_fresh store in
  Alcotest.(check int) "header corruption counted" 1 stats2.Store.torn_tails;
  Alcotest.(check int) "nothing replays" 0 (Store.total stats2.Store.loaded);
  Alcotest.(check bool) "tables empty" true (dump_tables () = ([], []))

(* ---- previous format ------------------------------------------------------

   A log written under the previous magic holds records of the previous
   [Store.record] type, whose constructors no longer line up with today's:
   it must load nothing, and the next append starts the file over. *)

let test_previous_format_starts_cold () =
  let dir = fresh_dir () in
  let store = ok_exn (Store.open_store ~dir ()) in
  let wal = Filename.concat dir "store.wal" in
  let record =
    Store.Transposition
      ( { Transposition.Key.platform = pid; budget = 8; prune = true; compose = true;
          kernel = gen_kernel (Rng.create 3) },
        { Transposition.reward = 1.5; evaluated = 3; pruned = 1 } )
  in
  let oc = open_out_bin wal in
  output_string oc "XPWAL02\n";
  Wal.append oc (Marshal.to_string record []);
  close_out oc;
  let stats = load_fresh store in
  Alcotest.(check int) "nothing replays" 0 (Store.total stats.Store.loaded);
  Alcotest.(check int) "bad header counted" 1 stats.Store.torn_tails;
  Alcotest.(check bool) "tables empty" true (dump_tables () = ([], []));
  Store.append store record;
  Store.close store;
  let header = In_channel.with_open_bin wal (fun ic -> really_input_string ic 8) in
  Alcotest.(check string) "rewritten under the new magic" Wal.magic header;
  let stats2 = load_fresh store in
  Alcotest.(check int) "only the new record replays" 1 (Store.total stats2.Store.loaded);
  Alcotest.(check int) "no damage left" 0 stats2.Store.torn_tails

(* ---- interrupted compaction ----------------------------------------------- *)

let test_leftover_compaction_file () =
  let rng = Rng.create 5 in
  let records = gen_records rng 6 in
  let dir = fresh_dir () in
  let store = ok_exn (Store.open_store ~dir ()) in
  List.iter (Store.append store) records;
  Store.close store;
  (* a crash before the rename leaves the new log half-written beside the
     old one *)
  let tmp = Filename.concat dir "store.wal.tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Wal.magic ^ "half a frame");
  close_out oc;
  let stats = load_fresh store in
  Alcotest.(check int) "the log alone replays" 6 (Store.total stats.Store.loaded);
  Alcotest.(check int) "no damage seen" 0 stats.Store.torn_tails;
  Alcotest.(check bool) "contents exact" true (dump_tables () = expected records);
  ignore (ok_exn (Store.compact store));
  Alcotest.(check bool) "compaction consumed the leftover" false (Sys.file_exists tmp);
  ignore (load_fresh store);
  Alcotest.(check bool) "compacted contents exact" true (dump_tables () = expected records)

(* ---- write-through attachment --------------------------------------------- *)

let test_attach_write_through () =
  let dir = fresh_dir () in
  let store = ok_exn (Store.open_store ~dir ()) in
  clear_tables ();
  Store.attach store;
  Alcotest.(check bool) "attached" true (Store.active () <> None);
  let rng = Rng.create 11 in
  let kernel = gen_kernel rng in
  Transposition.store ~platform:pid ~budget:8 ~prune:true ~compose:true kernel
    { Transposition.reward = 1.5; evaluated = 3; pruned = 1 };
  Memo.store ~mode:Memo.Solve ~max_steps:100 (gen_problem rng)
    { Memo.payload = Memo.Outcome Problem.Unsat; stats = { Problem.steps = 5; evals = 9 } };
  Store.detach ();
  let info = Store.scan store in
  Alcotest.(check int) "transposition record persisted" 1 info.Store.records.Store.transposition;
  Alcotest.(check int) "memo record persisted" 1 info.Store.records.Store.solver_memo;
  (* detached: fresh learning no longer streams to the log *)
  Transposition.store ~platform:pid ~budget:9 ~prune:true ~compose:true kernel
    { Transposition.reward = 1.0; evaluated = 1; pruned = 0 };
  Alcotest.(check int) "no append after detach" 2
    (Store.total (Store.scan store).Store.records);
  (* ensure is idempotent: same dir, same attachment *)
  let t1 = ok_exn (Store.ensure ~dir ()) in
  let t2 = ok_exn (Store.ensure ~dir ()) in
  Alcotest.(check bool) "ensure is idempotent" true (t1 == t2);
  Store.detach ()

let test_failing_append_detaches () =
  let dir = fresh_dir () in
  let store = ok_exn (Store.open_store ~dir ()) in
  (* a directory where the log should be: every append fails *)
  Unix.mkdir (Filename.concat dir "store.wal") 0o755;
  clear_tables ();
  Store.attach store;
  let kernel = gen_kernel (Rng.create 13) in
  let entry = { Transposition.reward = 1.5; evaluated = 3; pruned = 1 } in
  (* the table holds what a load restored; a failing append leaves it be *)
  Transposition.restore
    { Transposition.Key.platform = pid; budget = 8; prune = true; compose = true; kernel }
    entry;
  Transposition.store ~platform:pid ~budget:8 ~prune:true ~compose:true kernel entry;
  Alcotest.(check bool) "detached" true (Store.active () = None);
  let trans, _ = dump_tables () in
  Alcotest.(check int) "the in-memory table kept the entry" 1 (List.length trans);
  (* detached: later learning no longer reaches the store *)
  Transposition.store ~platform:pid ~budget:9 ~prune:true ~compose:true kernel entry;
  Alcotest.(check bool) "still detached" true (Store.active () = None)

(* ---- parallel translations: jobs=1 vs jobs=4 ------------------------------

   Whole translations are the only work that runs in parallel. As in the
   bench harness, each operator is one pool task that translates its shapes
   in order. Every task runs in a fresh session, so results, the stable
   metrics snapshot and the persisted store state must not depend on the
   job count, from a cold start. *)

module Pool = Xpiler_util.Pool
module Listx = Xpiler_util.Listx
module Metrics = Xpiler_obs.Metrics
module Json = Xpiler_obs.Json
module Xpiler = Xpiler_core.Xpiler
module Config = Xpiler_core.Config

let translation_groups =
  List.map
    (fun name ->
      let op = Registry.find_exn name in
      List.map (fun shape -> (op, shape)) (Listx.take 3 op.Opdef.shapes))
    [ "gemm"; "relu"; "add" ]

let translate_groups ~jobs =
  clear_tables ();
  Metrics.reset ();
  let store = ok_exn (Store.open_store ~dir:(fresh_dir ()) ()) in
  Store.attach store;
  let outcomes =
    Fun.protect ~finally:Store.detach (fun () ->
        Pool.map ~jobs
          (List.map (fun (op, shape) ->
               let o =
                 Xpiler.transcompile ~config:Config.tuned ~src:Platform.Cuda ~dst:Platform.Bang
                   ~op ~shape ()
               in
               (o.Xpiler.status, o.Xpiler.target_text, o.Xpiler.throughput)))
          translation_groups)
  in
  (outcomes, Metrics.snapshot ~stable_only:true (), store)

let test_parallel_translations_deterministic () =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) @@ fun () ->
  let o1, m1, s1 = translate_groups ~jobs:1 in
  let o4, m4, s4 = translate_groups ~jobs:4 in
  Alcotest.(check bool) "same status, target text and throughput" true (o1 = o4);
  Alcotest.(check bool) "tuning ran" true
    (List.exists (List.exists (fun (_, _, t) -> t <> None)) o1);
  let json m = Json.to_string (Metrics.to_json m) in
  Alcotest.(check string) "same stable metrics snapshot" (json m1) (json m4);
  Alcotest.(check bool) "compile cache lookups are stable" true
    (List.exists
       (fun (s : Metrics.sample) ->
         s.Metrics.name = "xpiler_compile_cache_lookups_total"
         && s.Metrics.value <> Metrics.Vcounter 0)
       m1);
  let st1 = load_fresh s1 in
  let d1 = dump_tables () in
  let st4 = load_fresh s4 in
  let d4 = dump_tables () in
  Alcotest.(check bool) "the translations persisted something" true
    (Store.total st1.Store.loaded > 0);
  Alcotest.(check int) "same record count" (Store.total st1.Store.loaded)
    (Store.total st4.Store.loaded);
  Alcotest.(check bool) "identical persisted state" true (d1 = d4)

(* ---- sessions: a pool task starts cold ------------------------------------

   Every translation cache is a session value, and every pool task runs in a
   fresh session: whatever the caller learned is invisible to the task, at
   any job count, and survives the map. *)

module Compile = Xpiler_machine.Compile
module Tracer = Xpiler_obs.Tracer
module Trace = Xpiler_obs.Trace

let test_pool_tasks_start_cold () =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) @@ fun () ->
  clear_tables ();
  let rng = Rng.create 17 in
  let kernel = gen_kernel rng and problem = gen_problem rng in
  let find_state () =
    Transposition.find ~platform:pid ~budget:8 ~prune:true ~compose:true kernel
  in
  Transposition.restore
    { Transposition.Key.platform = pid; budget = 8; prune = true; compose = true; kernel }
    { Transposition.reward = 1.5; evaluated = 3; pruned = 1 };
  Memo.store ~mode:Memo.Solve ~max_steps:100 problem
    { Memo.payload = Memo.Outcome Problem.Unsat; stats = { Problem.steps = 5; evals = 9 } };
  let compiled = Compile.cached kernel in
  let caller_view () =
    ( find_state () <> None,
      Memo.find ~mode:Memo.Solve ~max_steps:100 problem <> None,
      Compile.cached kernel == compiled )
  in
  Trace.with_tracer (Tracer.create ()) @@ fun () ->
  List.iter
    (fun jobs ->
      let tasks =
        Pool.map ~jobs
          (fun _ ->
            let c = Compile.cached kernel in
            ( find_state () = None && Transposition.size () = 0,
              Memo.size () = 0,
              c != compiled && Compile.cached kernel == c,
              Trace.enabled () ))
          (List.init 4 Fun.id)
      in
      let each what f =
        Alcotest.(check bool) (Printf.sprintf "jobs=%d: %s" jobs what) true (List.for_all f tasks)
      in
      each "transposition table empty" (fun (t, _, _, _) -> t);
      each "solver memo empty" (fun (_, m, _, _) -> m);
      each "compile cache empty, then its own" (fun (_, _, c, _) -> c);
      each "no ambient tracer" (fun (_, _, _, tr) -> not tr);
      Alcotest.(check bool) (Printf.sprintf "jobs=%d: caller's entries survive" jobs) true
        (caller_view () = (true, true, true)))
    [ 1; 4 ]

let () =
  clear_tables ();
  Alcotest.run "store"
    [ ( "wal",
        [ roundtrip_test;
          Alcotest.test_case "torn tail is a valid prefix" `Quick test_torn_tail;
          Alcotest.test_case "corrupt frame cuts the log" `Quick test_corrupt_frame;
          Alcotest.test_case "previous-format log starts cold" `Quick
            test_previous_format_starts_cold;
          Alcotest.test_case "leftover compaction file is ignored" `Quick
            test_leftover_compaction_file
        ] );
      ( "wiring",
        [ Alcotest.test_case "attach write-through" `Quick test_attach_write_through;
          Alcotest.test_case "failing append detaches" `Quick test_failing_append_detaches
        ] );
      ( "sessions",
        [ Alcotest.test_case "pool tasks start cold" `Quick test_pool_tasks_start_cold ] );
      ( "determinism",
        [ Alcotest.test_case "parallel translations jobs=1 = jobs=4" `Slow
            test_parallel_translations_deterministic
        ] )
    ]
