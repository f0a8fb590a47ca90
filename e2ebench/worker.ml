(* Benchmark worker: one fresh process per sweep, so no process-global
   cache (transposition table, schedule DB, solver memo, compile and
   reference caches) carries over between measurements.

     worker.exe setup
     worker.exe sweep --workload NAME [--seed N] [--limit N] [--spans PATH]
     worker.exe vendor --workload NAME

   Every mode prints "ready" once set-up is done; run.py times each process
   from spawn to that line. [sweep] then prints one JSON object. With
   [--spans] the sweep is traced: it adds per-layer attribution to the
   object and writes its spans to PATH. [vendor] prints the vendor
   baseline's modelled seconds of every case of the workload, by label. *)

module Json = Xpiler_obs.Json

let usage () =
  prerr_endline
    "usage: worker.exe setup | worker.exe sweep --workload NAME [--seed N] [--limit N] [--spans PATH] \
     | worker.exe vendor --workload NAME";
  exit 2

let sweep ~workload ~seed ~limit ~spans =
  Sweep.warm_up ();
  print_endline "ready";
  let config = Sweep.config workload seed in
  let cases = Sweep.cases workload in
  let cases = match limit with Some n -> List.filteri (fun i _ -> i < n) cases | None -> cases in
  let fields =
    match spans with
    | Some spans -> Layers.run ~spans config cases
    | None -> Sweep.summary_json (snd (Sweep.run config cases))
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([ ("workload", Json.Str (Sweep.workload_name workload)); ("seed", Json.Int seed) ]
          @ fields)))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "setup" ] ->
    Sweep.warm_up ();
    print_endline "ready"
  | [ "vendor"; "--workload"; v ] -> (
    match Sweep.workload_of_string v with
    | Some w ->
      print_endline "ready";
      print_endline
        (Json.to_string
           (Json.Obj
              (List.map (fun (l, x) -> (l, Json.Float x)) (Sweep.vendor_seconds (Sweep.cases w)))))
    | None -> usage ())
  | "sweep" :: rest ->
    let workload = ref None and seed = ref Xpiler_core.Config.default.Xpiler_core.Config.seed
    and limit = ref None and spans = ref None in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: r -> workload := Sweep.workload_of_string v; parse r
      | "--seed" :: v :: r -> seed := int_of_string v; parse r
      | "--limit" :: v :: r -> limit := Some (int_of_string v); parse r
      | "--spans" :: v :: r -> spans := Some v; parse r
      | _ -> usage ()
    in
    (try parse rest with Failure _ -> usage ());
    (match !workload with
    | Some workload -> sweep ~workload ~seed:!seed ~limit:!limit ~spans:!spans
    | None -> usage ())
  | _ -> usage ()
