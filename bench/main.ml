(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

   Usage:
     dune exec bench/main.exe                    # all experiments
     dune exec bench/main.exe table6 fig7        # a subset
     dune exec bench/main.exe -- -j 4 table6     # 4 worker domains
   XPILER_BENCH_SHAPES=8 runs the full 168-case suite (default 2 shapes/op).
   -j/--jobs N (default 1) sizes the domain pool for the per-case loops;
   results, CSVs and trace journals are identical for any job count — only
   wall-clock changes. *)

let experiments : (string * (jobs:int -> unit)) list =
  let serial f ~jobs:_ = f () in
  [ ("table2", fun ~jobs -> Tables.table2 ~jobs ());
    ("table3", serial Tables.table3);
    ("table5", serial Tables.table5);
    ("table6", fun ~jobs -> Tables.table6 ~jobs ());
    ("table7", fun ~jobs -> Tables.table7 ~jobs ());
    ("table8", serial Tables.table8);
    ("fig7", fun ~jobs -> Tables.fig7 ~jobs ());
    ("fig8", serial Tables.fig8);
    ("space", serial Tables.space);
    ("mcts_dse", serial Tables.mcts_dse);
    ("ablation", serial Ablation.run);
    ("micro", serial Micro.run) ]

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
  let tracer = Xpiler_obs.Tracer.create () in
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
  let rec parse jobs names = function
    | [] -> (jobs, List.rev names)
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j > 0 -> parse j names rest
      | _ ->
        Printf.eprintf "bad --jobs value %s\n" v;
        exit 2)
    | ("-j" | "--jobs") :: [] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 2
    | a :: rest -> parse jobs (a :: names) rest
  in
  let jobs, requested =
    match parse 1 [] args with jobs, [] -> (jobs, List.map fst experiments) | r -> r
  in
  Printf.printf "QiMeng-Xpiler benchmark harness (%d cases per direction; set XPILER_BENCH_SHAPES=8 for the full suite)\n%!"
    (List.length (Tables.cases ()));
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let t = Unix.gettimeofday () in
        traced name (fun () -> f ~jobs);
        Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t)
      | None ->
        Printf.printf "unknown experiment %s (available: %s)\n%!" name
          (String.concat ", " (List.map fst experiments)))
    requested;
  Printf.printf "\nTotal: %.1fs\n%!" (Unix.gettimeofday () -. t0)
