(* Domain-local so pooled worker domains never observe (or race on) the
   master's tracer: a freshly spawned domain starts with no tracer. *)
let active : Tracer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install t = Domain.DLS.set active (Some t)
let uninstall () = Domain.DLS.set active None
let current () = Domain.DLS.get active
let enabled () = Option.is_some (Domain.DLS.get active)

let without f =
  match Domain.DLS.get active with
  | None -> f ()
  | Some t ->
    Domain.DLS.set active None;
    Fun.protect ~finally:(fun () -> Domain.DLS.set active (Some t)) f

(* The same span marks feed the profiler — but through its own wall-clock
   stream, never through the tracer's deterministic one. *)
let span ?cat ?attrs ?prof name f =
  let profiled () = Prof.span (Option.value prof ~default:name) f in
  match Domain.DLS.get active with
  | None -> profiled ()
  | Some t -> Tracer.with_span t ?cat ?attrs name profiled

let count ?n name =
  match Domain.DLS.get active with None -> () | Some t -> Tracer.count t ?n name

let observe name v =
  match Domain.DLS.get active with None -> () | Some t -> Tracer.observe t name v

let instant ?attrs name =
  match Domain.DLS.get active with None -> () | Some t -> Tracer.instant t ?attrs name
