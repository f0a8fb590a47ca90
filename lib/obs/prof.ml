(* Wall-clock + allocation profiler. See prof.mli.

   Everything here is wall-clock and Gc-derived, hence non-deterministic by
   nature; the module therefore never writes into the tracer's event stream —
   journals and golden traces stay byte-identical whether profiling is on or
   off. Results are pulled with [report] and exported separately. *)

type span_agg = {
  mutable s_count : int;
  mutable s_wall : float;
  mutable s_alloc : float; (* words *)
  mutable s_majors : int;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 16
let t_start = ref 0.0
let t_stop = ref 0.0 (* <= t_start while running *)

let alloc_words (st : Gc.stat) = st.minor_words +. st.major_words -. st.promoted_words

let enable () =
  Mutex.protect lock (fun () ->
      t_start := Unix.gettimeofday ();
      t_stop := 0.0);
  Atomic.set enabled true

let disable () =
  Atomic.set enabled false;
  Mutex.protect lock (fun () -> t_stop := Unix.gettimeofday ())

let is_enabled () = Atomic.get enabled

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset spans;
      t_start := Unix.gettimeofday ();
      t_stop := 0.0)

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
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let g0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let g1 = Gc.quick_stat () in
        record_span name (t1 -. t0)
          (alloc_words g1 -. alloc_words g0)
          (g1.major_collections - g0.major_collections))
      f
  end

(* ---- reports ------------------------------------------------------------- *)

type span_row = { span : string; count : int; wall_s : float; alloc_words : float; majors : int }
type report = { span_rows : span_row list; total_wall : float }

let report () =
  Mutex.protect lock (fun () ->
      let span_rows =
        Hashtbl.fold
          (fun name a acc ->
            { span = name; count = a.s_count; wall_s = a.s_wall; alloc_words = a.s_alloc; majors = a.s_majors }
            :: acc)
          spans []
        |> List.sort (fun a b -> compare a.span b.span)
      in
      let t_end = if !t_stop > !t_start then !t_stop else Unix.gettimeofday () in
      { span_rows; total_wall = Float.max 0.0 (t_end -. !t_start) })

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
