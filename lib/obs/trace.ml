(* A session value, so pool tasks never observe (or race on) their
   caller's tracer: every task starts with none. *)
module Session = Xpiler_util.Session

let active : Tracer.t option Session.t = Session.make (fun () -> None)
let with_tracer t f = Session.with_value active (Some t) f
let current () = Session.get active
let enabled () = Option.is_some (current ())

let without f =
  match current () with None -> f () | Some _ -> Session.with_value active None f

(* The same span marks feed the profiler — but through its own wall-clock
   stream, never through the tracer's deterministic one. *)
let span ?cat ?attrs ?prof name f =
  let profiled () = Prof.span (Option.value prof ~default:name) f in
  match current () with
  | None -> profiled ()
  | Some t -> Tracer.with_span t ?cat ?attrs name profiled

let count ?n name = match current () with None -> () | Some t -> Tracer.count t ?n name
let observe name v = match current () with None -> () | Some t -> Tracer.observe t name v

let instant ?attrs name =
  match current () with None -> () | Some t -> Tracer.instant t ?attrs name
