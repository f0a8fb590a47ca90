(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

   Usage:
     dune exec bench/main.exe                    # all experiments
     dune exec bench/main.exe table6 fig7        # a subset
     dune exec bench/main.exe -- -j 4 table6     # 4 worker domains
   XPILER_BENCH_SHAPES=8 runs the full 168-case suite (default 2 shapes/op).
   -j/--jobs N (or XPILER_JOBS=N) sizes the domain pool for the per-case
   loops; results, CSVs and trace journals are identical for any job count —
   only wall-clock changes. *)

let experiments =
  [ ("table2", Tables.table2);
    ("table3", Tables.table3);
    ("table5", Tables.table5);
    ("table6", Tables.table6);
    ("table7", Tables.table7);
    ("table8", Tables.table8);
    ("fig7", Tables.fig7);
    ("fig8", Tables.fig8);
    ("space", Tables.space);
    ("mcts_dse", Tables.mcts_dse);
    ("ablation", Ablation.run);
    ("micro", Micro.run) ]

(* Every experiment runs under an ambient tracer: each [Xpiler.transcompile]
   it runs inline (trace level Off in its config) emits into the
   experiment's shared timeline, and the event stream lands in
   results/trace_<experiment>.jsonl — replay with `xpiler trace`. Timestamps
   are virtual (Vclock) seconds, so the journal is deterministic even though
   the wall-clock timings printed alongside are not. A [Pool.map] task
   starts with no tracer, so an experiment that runs no translation inline
   (table2, table6 and fig7 pool theirs; table5 and space run none) records
   no events and writes no file. *)
let traced name f =
  let tracer = Xpiler_obs.Tracer.create ~level:Xpiler_obs.Tracer.Detail () in
  Xpiler_obs.Trace.with_tracer tracer f;
  match Xpiler_obs.Tracer.events tracer with
  | [] -> Printf.printf "[trace journal: none, no traced events]\n%!"
  | events ->
    Xpiler_util.Fsx.mkdir_p "results";
    let path = Filename.concat "results" (Printf.sprintf "trace_%s.jsonl" name) in
    Xpiler_obs.Journal.write_file path events;
    Printf.printf "[trace journal: %s, %d events]\n%!" path (List.length events)

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  let rec parse names = function
    | [] -> List.rev names
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j > 0 ->
        Xpiler_util.Pool.set_jobs j;
        parse names rest
      | _ ->
        Printf.eprintf "bad --jobs value %s\n" v;
        exit 2)
    | ("-j" | "--jobs") :: [] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 2
    | a :: rest -> parse (a :: names) rest
  in
  let requested =
    match parse [] args with [] -> List.map fst experiments | names -> names
  in
  Printf.printf "QiMeng-Xpiler benchmark harness (%d cases per direction; set XPILER_BENCH_SHAPES=8 for the full suite)\n%!"
    (List.length (Tables.cases ()));
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let t = Unix.gettimeofday () in
        traced name f;
        Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t)
      | None ->
        Printf.printf "unknown experiment %s (available: %s)\n%!" name
          (String.concat ", " (List.map fst experiments)))
    requested;
  Printf.printf "\nTotal: %.1fs\n%!" (Unix.gettimeofday () -. t0)
