(* Process-global typed metrics registry. See metrics.mli for the contract.

   Counters are atomic ints, gauges atomic floats, histograms mutex-protected
   bucket arrays — all safe to update from pool worker domains. The registry
   itself (interning of handles) is mutex-protected; handle lookups happen at
   instrumentation-site registration, not per increment, so the hot path is a
   single atomic op. *)

type kind = Counter | Gauge | Histogram

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

type hist_state = {
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1; last is overflow *)
  mutable sum : float;
  mutable count : int;
  mutable vmin : float;
  mutable vmax : float;
  lock : Mutex.t;
}

type cell =
  | Ccell of int Atomic.t
  | Gcell of float Atomic.t
  | Hcell of hist_state

type metric = {
  m_name : string;
  m_labels : (string * string) list; (* sorted by key *)
  m_help : string;
  m_stable : bool;
  cell : cell;
}

(* a handle is the interned cell plus the trace name its updates forward to;
   two handles on one cell may forward differently (or not at all) *)
type counter = { c : int Atomic.t; c_trace : string option }
type gauge = float Atomic.t
type histogram = { h : hist_state; h_trace : string option }

let registry : (string * (string * string) list, metric) Hashtbl.t = Hashtbl.create 64
let name_meta : (string, kind * string) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let default_bounds = [| 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 |]

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

let register ~kind ~stable ~help ~labels name make_cell =
  let labels = sort_labels labels in
  Mutex.protect registry_lock (fun () ->
      (match Hashtbl.find_opt name_meta name with
      | Some (k, _) when k <> kind ->
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name (kind_name k)
             (kind_name kind))
      | Some _ -> ()
      | None -> Hashtbl.replace name_meta name (kind, help));
      match Hashtbl.find_opt registry (name, labels) with
      | Some m -> m.cell
      | None ->
        let help = match Hashtbl.find_opt name_meta name with Some (_, h) -> h | None -> help in
        let m = { m_name = name; m_labels = labels; m_help = help; m_stable = stable; cell = make_cell () } in
        Hashtbl.replace registry (name, labels) m;
        m.cell)

let counter ?(stable = true) ?(help = "") ?(labels = []) ?trace name : counter =
  match register ~kind:Counter ~stable ~help ~labels name (fun () -> Ccell (Atomic.make 0)) with
  | Ccell c -> { c; c_trace = trace }
  | _ -> assert false

let gauge ?(stable = true) ?(help = "") ?(labels = []) name : gauge =
  match register ~kind:Gauge ~stable ~help ~labels name (fun () -> Gcell (Atomic.make 0.0)) with
  | Gcell g -> g
  | _ -> assert false

let histogram ?(stable = true) ?(help = "") ?(labels = []) ?(bounds = default_bounds) ?trace
    name : histogram =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then invalid_arg "Metrics.histogram: bounds not increasing")
    bounds;
  match
    register ~kind:Histogram ~stable ~help ~labels name (fun () ->
        Hcell
          {
            bounds = Array.copy bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            sum = 0.0;
            count = 0;
            vmin = infinity;
            vmax = neg_infinity;
            lock = Mutex.create ();
          })
  with
  | Hcell h -> { h; h_trace = trace }
  | _ -> assert false

let inc ?(n = 1) { c; c_trace } =
  ignore (Atomic.fetch_and_add c n);
  match c_trace with Some name -> Trace.count ~n name | None -> ()

let value { c; _ } = Atomic.get c

let set (g : gauge) v = Atomic.set g v


let observe { h; h_trace } v =
  Mutex.protect h.lock (fun () ->
      let n = Array.length h.bounds in
      let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
      let b = bucket 0 in
      h.counts.(b) <- h.counts.(b) + 1;
      h.sum <- h.sum +. v;
      h.count <- h.count + 1;
      if v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v);
  match h_trace with Some name -> Trace.observe name v | None -> ()

(* ---- snapshots ---------------------------------------------------------- *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
  hmin : float;
  hmax : float;
}

type value = Vcounter of int | Vgauge of float | Vhist of hist_snapshot

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  stable : bool;
  value : value;
}

let snap_hist (h : hist_state) =
  Mutex.protect h.lock (fun () ->
      {
        bounds = Array.copy h.bounds;
        counts = Array.copy h.counts;
        sum = h.sum;
        count = h.count;
        hmin = (if h.count = 0 then 0.0 else h.vmin);
        hmax = (if h.count = 0 then 0.0 else h.vmax);
      })

let sample_of_metric m =
  let value =
    match m.cell with
    | Ccell c -> Vcounter (Atomic.get c)
    | Gcell g -> Vgauge (Atomic.get g)
    | Hcell h -> Vhist (snap_hist h)
  in
  { name = m.m_name; labels = m.m_labels; help = m.m_help; stable = m.m_stable; value }

let snapshot ?(stable_only = false) () =
  let base =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun _ m acc -> sample_of_metric m :: acc) registry [])
  in
  let all = if stable_only then List.filter (fun s -> s.stable) base else base in
  List.sort (fun a b ->
      match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)
    all

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m.cell with
          | Ccell c -> Atomic.set c 0
          | Gcell g -> Atomic.set g 0.0
          | Hcell h ->
            Mutex.protect h.lock (fun () ->
                Array.fill h.counts 0 (Array.length h.counts) 0;
                h.sum <- 0.0;
                h.count <- 0;
                h.vmin <- infinity;
                h.vmax <- neg_infinity))
        registry)

(* ---- quantiles ----------------------------------------------------------- *)

let hist_quantile (h : hist_snapshot) q =
  if h.count = 0 then 0.0
  else if h.count = 1 || q <= 0.0 then h.hmin
  else if q >= 1.0 then h.hmax
  else begin
    (* nearest-rank over buckets; the answer is the upper bound of the bucket
       containing the rank, clamped to the observed [hmin, hmax] range *)
    let rank = int_of_float (ceil (q *. float_of_int h.count)) in
    let rank = max 1 (min h.count rank) in
    let n = Array.length h.bounds in
    let rec find i acc =
      if i > n then h.hmax
      else
        let acc = acc + h.counts.(i) in
        if acc >= rank then if i < n then h.bounds.(i) else h.hmax
        else find (i + 1) acc
    in
    let v = find 0 0 in
    Float.min h.hmax (Float.max h.hmin v)
  end

(* ---- exports ------------------------------------------------------------- *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
    ^ "}"

let render_labels_extra labels extra =
  let all = labels @ [ extra ] in
  render_labels all

let float_str f =
  (* shortest round-trip form, matching the journal codec *)
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.15g" f in
    if float_of_string shorter = f then shorter else s

let to_openmetrics samples =
  let buf = Buffer.create 1024 in
  let last_name = ref "" in
  List.iter
    (fun s ->
      if s.name <> !last_name then begin
        last_name := s.name;
        if s.help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.name s.help);
        let ty =
          match s.value with Vcounter _ -> "counter" | Vgauge _ -> "gauge" | Vhist _ -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.name ty)
      end;
      match s.value with
      | Vcounter n -> Buffer.add_string buf (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) n)
      | Vgauge v ->
        Buffer.add_string buf (Printf.sprintf "%s%s %s\n" s.name (render_labels s.labels) (float_str v))
      | Vhist h ->
        let acc = ref 0 in
        Array.iteri
          (fun i c ->
            acc := !acc + c;
            let le =
              if i < Array.length h.bounds then float_str h.bounds.(i) else "+Inf"
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.name (render_labels_extra s.labels ("le", le)) !acc))
          h.counts;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" s.name (render_labels s.labels) (float_str h.sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" s.name (render_labels s.labels) h.count))
    samples;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_json samples =
  Json.List
    (List.map
       (fun s ->
         let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels) in
         let base = [ ("name", Json.Str s.name); ("labels", labels); ("stable", Json.Bool s.stable) ] in
         let value =
           match s.value with
           | Vcounter n -> [ ("kind", Json.Str "counter"); ("value", Json.Int n) ]
           | Vgauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Float v) ]
           | Vhist h ->
             [
               ("kind", Json.Str "histogram");
               ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)));
               ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
               ("sum", Json.Float h.sum);
               ("count", Json.Int h.count);
               ("min", Json.Float h.hmin);
               ("max", Json.Float h.hmax);
             ]
         in
         Json.Obj (base @ value))
       samples)
