(* Bench-history regression watchdog. See bench_history.mli. *)

type entry = { bench : string; smoke : bool; time : float option; metrics : (string * float) list }

let entry_to_json e =
  let base = [ ("bench", Json.Str e.bench); ("smoke", Json.Bool e.smoke) ] in
  let time = match e.time with Some t -> [ ("time", Json.Float t) ] | None -> [] in
  let metrics = [ ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.metrics)) ] in
  Json.Obj (base @ time @ metrics)

let entry_of_json j =
  match (Json.member "bench" j, Json.member "smoke" j, Json.member "metrics" j) with
  | Some (Json.Str bench), Some (Json.Bool smoke), Some (Json.Obj fields) ->
    let time = Option.bind (Json.member "time" j) Json.to_float in
    let metrics =
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) fields
    in
    Ok { bench; smoke; time; metrics = List.sort compare metrics }
  | _ -> Error "history entry: expected {bench, smoke, metrics}"

let default_path = "results/history.jsonl"

let append ?(path = default_path) e =
  (match Filename.dirname path with
  | "" | "." -> ()
  | dir -> Xpiler_util.Fsx.mkdir_p dir);
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* a single one-line write: concurrent bench rules appending to the
         same history interleave at line granularity *)
      output_string oc (Json.to_string (entry_to_json e) ^ "\n"))

let load ?(path = default_path) () =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines = String.split_on_char '\n' text in
    let rec go lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match Json.parse line with
          | Error m -> Error (Printf.sprintf "%s, line %d: %s" path lineno m)
          | Ok j -> (
            match entry_of_json j with
            | Ok e -> go (lineno + 1) (e :: acc) rest
            | Error m -> Error (Printf.sprintf "%s, line %d: %s" path lineno m))
        end
    in
    go 1 [] lines
  end

(* ---- headline extraction ------------------------------------------------- *)

let geomean = function
  | [] -> 0.0
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let read_json_file path =
  if not (Sys.file_exists path) then Error (path ^ ": not found")
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse text with Ok j -> Ok j | Error m -> Error (path ^ ": " ^ m)
  end

let mfloat name j = Option.bind (Json.member name j) Json.to_float

let kernel_floats field j =
  match Json.member "kernels" j with
  | Some (Json.List ks) -> List.filter_map (mfloat field) ks
  | _ -> []

let smoke_of j = match Json.member "smoke" j with Some (Json.Bool b) -> b | _ -> false

let of_bench_json ~bench j =
  let metrics =
    match bench with
    | "eval" ->
      let g = Option.value ~default:0.0 (mfloat "geomean_speedup" j) in
      let eps = geomean (kernel_floats "compiled_elems_per_sec" j) in
      let par =
        match Json.member "tuning" j with Some t -> Option.value ~default:0.0 (mfloat "parallel_speedup" t) | None -> 0.0
      in
      [ ("compiled_eps_geomean", eps); ("geomean_speedup", g); ("parallel_speedup", par) ]
    | "tuning" ->
      let reductions = kernel_floats "eval_reduction" j in
      let ratios = kernel_floats "best_reward_ratio" j in
      (* absent (not 0.0) on schema-v1 files that predate the durable store,
         so histories spanning the schema change skip the spec instead of
         reading the old runs as total regressions *)
      let store_warm =
        match Json.member "store_warm_start" j with
        | Some s -> (
          match mfloat "warm_reduction_mean" s with
          | Some v -> [ ("store_warm_reduction_mean", v) ]
          | None -> [])
        | None -> []
      in
      [
        ("best_reward_ratio_min", List.fold_left Float.min infinity (1.0 :: ratios));
        ("eval_reduction_mean", mean reductions);
      ]
      @ store_warm
    | "resilience" ->
      [
        ("ladder_broken", Option.value ~default:0.0 (mfloat "total_ladder_broken" j));
        ("seed_broken", Option.value ~default:0.0 (mfloat "total_seed_broken" j));
      ]
    | "repair" ->
      let v name = Option.value ~default:0.0 (mfloat name j) in
      [
        ("steps_reduction", v "steps_reduction");
        ("evals_reduction", v "evals_reduction");
        ("wall_speedup", v "wall_speedup");
        ("optimized_broken", v "optimized_broken");
      ]
    | other -> invalid_arg ("Bench_history.of_bench_json: unknown bench " ^ other)
  in
  { bench; smoke = smoke_of j; time = None; metrics = List.sort compare metrics }

let of_bench_file ~bench path =
  match read_json_file path with Ok j -> Ok (of_bench_json ~bench j) | Error m -> Error m

(* ---- regression specs ---------------------------------------------------- *)

type direction = Higher | Lower
type noise = Exact | Wall

type spec = {
  metric : string;
  direction : direction;
  noise : noise;
  rel_threshold : float;
  abs_slack : float;
  gated : bool;
}

let specs = function
  | "eval" ->
    [
      { metric = "geomean_speedup"; direction = Higher; noise = Wall; rel_threshold = 0.25; abs_slack = 0.0; gated = true };
      { metric = "compiled_eps_geomean"; direction = Higher; noise = Wall; rel_threshold = 0.35; abs_slack = 0.0; gated = true };
      (* parallel speedup collapses to ~1 on single-core hosts; recorded but
         never gated *)
      { metric = "parallel_speedup"; direction = Higher; noise = Wall; rel_threshold = 1.0; abs_slack = 0.0; gated = false };
    ]
  | "tuning" ->
    [
      { metric = "eval_reduction_mean"; direction = Higher; noise = Exact; rel_threshold = 0.15; abs_slack = 0.05; gated = true };
      { metric = "best_reward_ratio_min"; direction = Higher; noise = Exact; rel_threshold = 0.05; abs_slack = 0.0; gated = true };
      (* deterministic eval counts, like eval_reduction_mean; only present
         on schema-v2 BENCH_tuning.json files (diff skips absent metrics) *)
      { metric = "store_warm_reduction_mean"; direction = Higher; noise = Exact; rel_threshold = 0.15; abs_slack = 0.05; gated = true };
    ]
  | "resilience" ->
    [
      { metric = "ladder_broken"; direction = Lower; noise = Exact; rel_threshold = 0.0; abs_slack = 0.5; gated = true };
      { metric = "seed_broken"; direction = Lower; noise = Exact; rel_threshold = 0.0; abs_slack = 0.5; gated = false };
    ]
  | "repair" ->
    [
      (* solver work is deterministic (fresh steps/evals counted on the
         master domain), so reductions gate exactly *)
      { metric = "steps_reduction"; direction = Higher; noise = Exact; rel_threshold = 0.15; abs_slack = 0.1; gated = true };
      { metric = "evals_reduction"; direction = Higher; noise = Exact; rel_threshold = 0.15; abs_slack = 0.1; gated = true };
      { metric = "optimized_broken"; direction = Lower; noise = Exact; rel_threshold = 0.0; abs_slack = 0.5; gated = true };
      { metric = "wall_speedup"; direction = Higher; noise = Wall; rel_threshold = 0.35; abs_slack = 0.0; gated = true };
    ]
  | _ -> []

(* ---- diffing ------------------------------------------------------------- *)

type verdict = {
  metric : string;
  current : float;
  baseline : float option;  (** median of matching history entries *)
  n_history : int;
  regressed : bool;
  detail : string;
}

let median xs =
  match List.sort compare xs with
  | [] -> None
  | sorted ->
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    Some (if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0)

let diff ?(threshold_scale = 1.0) ?(exact_only = false) ~history current =
  let matching = List.filter (fun e -> e.bench = current.bench && e.smoke = current.smoke) history in
  let specs = specs current.bench in
  List.filter_map
    (fun spec ->
      if exact_only && spec.noise <> Exact then None
      else
        match List.assoc_opt spec.metric current.metrics with
        | None -> None
        | Some cur ->
          let past = List.filter_map (fun e -> List.assoc_opt spec.metric e.metrics) matching in
          let baseline = median past in
          let verdict =
            match baseline with
            | None -> { metric = spec.metric; current = cur; baseline = None; n_history = 0; regressed = false; detail = "no history" }
            | Some base ->
              let thr = spec.rel_threshold *. threshold_scale in
              let slack = spec.abs_slack *. threshold_scale in
              let drop, direction_word =
                match spec.direction with
                | Higher -> (base -. cur, "below")
                | Lower -> (cur -. base, "above")
              in
              (* zero baseline: a relative drop is undefined, and treating the
                 *absolute* drop as a ratio silently compared incomparable
                 units (a metric like ladder_broken moving off a zero median
                 slipped past large thresholds). Semantics: any worsening move
                 off a zero baseline is an unbounded relative change, so only
                 the absolute slack can excuse it. *)
              let rel_drop =
                if Float.abs base > 0.0 then drop /. Float.abs base
                else if drop > 0.0 then Float.infinity
                else 0.0
              in
              let regressed = spec.gated && drop > slack && rel_drop > thr in
              let detail =
                if regressed && Float.abs base = 0.0 then
                  Printf.sprintf
                    "%.4g is %s the zero median of %d run(s) by more than the %.4g slack" cur
                    direction_word (List.length past) slack
                else if regressed then
                  Printf.sprintf "%.4g is %.0f%% %s the median of %d run(s) (%.4g); threshold %.0f%%"
                    cur (rel_drop *. 100.0) direction_word (List.length past) base (thr *. 100.0)
                else if spec.gated then Printf.sprintf "ok (median of %d run(s): %.4g)" (List.length past) base
                else Printf.sprintf "recorded, not gated (median %.4g)" base
              in
              { metric = spec.metric; current = cur; baseline = Some base; n_history = List.length past; regressed; detail }
          in
          Some verdict)
    specs

let regressions verdicts = List.filter (fun v -> v.regressed) verdicts

let record ?path ?(exact_only = true) entry =
  (* a corrupt history is an error, not an empty baseline: silently treating
     it as empty made the watchdog pass with nothing to compare against and
     then kept appending to the broken file *)
  match load ?path () with
  | Error m -> Error m
  | Ok prior ->
    let verdicts = diff ~exact_only ~history:prior entry in
    append ?path entry;
    Ok (regressions verdicts)
