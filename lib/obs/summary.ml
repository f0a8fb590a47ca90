module Vclock = Xpiler_util.Vclock

type hist = { n : int; min : float; max : float; mean : float; total : float }

type t = {
  total_seconds : float;
  stages : (string * float) list;
  spans : (string * int * float) list;
  counters : (string * int) list;
  histograms : (string * hist) list;
  events : int;
}

let canonical_stage_index name =
  let rec go i = function
    | [] -> max_int
    | s :: rest -> if Vclock.stage_name s = name then i else go (i + 1) rest
  in
  go 0 Vclock.all_stages

let of_events events =
  let stage_totals : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let span_agg : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let span_order = ref [] in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let hists : (string, hist) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Event.Span { name; cat = "stage"; dur; _ } ->
        Hashtbl.replace stage_totals name
          (dur +. Option.value ~default:0.0 (Hashtbl.find_opt stage_totals name))
      | Event.Span { name; dur; _ } ->
        (match Hashtbl.find_opt span_agg name with
        | None ->
          span_order := name :: !span_order;
          Hashtbl.replace span_agg name (1, dur)
        | Some (n, d) -> Hashtbl.replace span_agg name (n + 1, d +. dur))
      | Event.Count { name; n; _ } ->
        Hashtbl.replace counters name (n + Option.value ~default:0 (Hashtbl.find_opt counters name))
      | Event.Observe { name; v; _ } ->
        let h =
          match Hashtbl.find_opt hists name with
          | None -> { n = 1; min = v; max = v; mean = v; total = v }
          | Some h ->
            let n = h.n + 1 and total = h.total +. v in
            { n; min = Float.min h.min v; max = Float.max h.max v;
              mean = total /. float_of_int n; total }
        in
        Hashtbl.replace hists name h
      | Event.Instant _ -> ())
    events;
  let stages =
    Hashtbl.fold (fun name v acc -> if v > 0.0 then (name, v) :: acc else acc) stage_totals []
    |> List.sort (fun (a, _) (b, _) ->
           compare (canonical_stage_index a, a) (canonical_stage_index b, b))
  in
  let spans =
    List.rev_map
      (fun name ->
        let n, d = Hashtbl.find span_agg name in
        (name, n, d))
      !span_order
  in
  let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  (* summing the per-stage totals in canonical order reproduces exactly the
     float additions [Vclock.elapsed] performs, so the grand total matches
     the clock bit-for-bit, not just approximately *)
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 stages in
  { total_seconds = total;
    stages;
    spans;
    counters = sorted_bindings counters;
    histograms = sorted_bindings hists;
    events = List.length events
  }

let stage_total t name =
  Option.value ~default:0.0 (List.assoc_opt name t.stages)
