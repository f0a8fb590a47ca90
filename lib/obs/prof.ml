(* Wall-clock + allocation profiler. See prof.mli.

   Everything here is wall-clock and Gc-derived, hence non-deterministic by
   nature; the module therefore never writes into the tracer's event stream —
   journals and golden traces are the same whatever the profiler measured.
   Results are pulled with [report] and exported separately. *)

type span_agg = {
  mutable s_count : int;
  mutable s_wall : float;
  mutable s_alloc : float; (* words *)
  mutable s_majors : int;
}

let lock = Mutex.create ()
let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 16
let t_start = ref (Unix.gettimeofday ())

(* finished major cycles, bumped at the end of each one, so a span reads an
   atomic rather than a whole-program Gc stat record *)
let majors = Atomic.make 0
let (_ : Gc.alarm) = Gc.create_alarm (fun () -> Atomic.incr majors)

(* words allocated by this domain: [Gc.counters] reads domain-local fields
   and allocates no more than its result tuple *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset spans;
      t_start := Unix.gettimeofday ())

let record_span name wall alloc majors =
  Mutex.protect lock (fun () ->
      let agg =
        match Hashtbl.find_opt spans name with
        | Some a -> a
        | None ->
          let a = { s_count = 0; s_wall = 0.0; s_alloc = 0.0; s_majors = 0 } in
          Hashtbl.replace spans name a;
          a
      in
      agg.s_count <- agg.s_count + 1;
      agg.s_wall <- agg.s_wall +. wall;
      agg.s_alloc <- agg.s_alloc +. alloc;
      agg.s_majors <- agg.s_majors + majors)

let span name f =
  let t0 = Unix.gettimeofday () in
  let a0 = alloc_words () in
  let m0 = Atomic.get majors in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      let a1 = alloc_words () in
      record_span name (t1 -. t0) (a1 -. a0) (Atomic.get majors - m0))
    f

(* ---- reports ------------------------------------------------------------- *)

type span_row = { span : string; count : int; wall_s : float; alloc_words : float; majors : int }
type report = { span_rows : span_row list; total_wall : float }

let to_row name a =
  { span = name; count = a.s_count; wall_s = a.s_wall; alloc_words = a.s_alloc;
    majors = a.s_majors }

let row name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt spans name with
      | Some a -> to_row name a
      | None -> { span = name; count = 0; wall_s = 0.0; alloc_words = 0.0; majors = 0 })

let report () =
  Mutex.protect lock (fun () ->
      let span_rows =
        Hashtbl.fold (fun name a acc -> to_row name a :: acc) spans []
        |> List.sort (fun a b -> compare a.span b.span)
      in
      { span_rows; total_wall = Float.max 0.0 (Unix.gettimeofday () -. !t_start) })

let to_json r =
  Json.Obj
    [
      ("total_wall_seconds", Json.Float r.total_wall);
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("span", Json.Str s.span);
                   ("count", Json.Int s.count);
                   ("wall_seconds", Json.Float s.wall_s);
                   ("alloc_words", Json.Float s.alloc_words);
                   ("major_collections", Json.Int s.majors);
                 ])
             r.span_rows) );
    ]
