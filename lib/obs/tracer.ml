type level = Off | Detail

type span = { id : int; sname : string; cat : string; attrs : Event.attrs; start : float; sdepth : int }

type t = {
  mutable vnow : float;
  mutable rev_events : Event.t list;
  mutable stack : span list;
  mutable next_id : int;
}

let create () = { vnow = 0.0; rev_events = []; stack = []; next_id = 0 }
let now t = t.vnow
let depth t = List.length t.stack
let emit t e = t.rev_events <- e :: t.rev_events

let stage_charge t stage seconds =
  emit t
    (Event.Span
       { name = stage; cat = "stage"; ts = t.vnow; dur = seconds;
         depth = List.length t.stack; attrs = [] });
  t.vnow <- t.vnow +. seconds

let span_begin t ?(cat = "span") ?(attrs = []) name =
  let s =
    { id = t.next_id; sname = name; cat; attrs; start = t.vnow; sdepth = List.length t.stack }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  s

let close t s =
  emit t
    (Event.Span
       { name = s.sname; cat = s.cat; ts = s.start; dur = t.vnow -. s.start;
         depth = s.sdepth; attrs = s.attrs })

let span_end t span =
  (* unwind past any spans left open below this one (exception paths) *)
  let rec unwind = function
    | [] -> []
    | s :: rest ->
      close t s;
      if s.id = span.id then rest else unwind rest
  in
  if List.exists (fun s -> s.id = span.id) t.stack then t.stack <- unwind t.stack

let with_span t ?cat ?attrs name f =
  let s = span_begin t ?cat ?attrs name in
  Fun.protect ~finally:(fun () -> span_end t s) f

let count t ?(n = 1) name = emit t (Event.Count { name; ts = t.vnow; n })
let observe t name v = emit t (Event.Observe { name; ts = t.vnow; v })
let instant t ?(attrs = []) name = emit t (Event.Instant { name; ts = t.vnow; attrs })

let events t = List.rev t.rev_events

let counter_total t name =
  List.fold_left
    (fun acc e -> match e with Event.Count { name = n; n = k; _ } when n = name -> acc + k | _ -> acc)
    0 t.rev_events
