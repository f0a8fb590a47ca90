(* Deterministic domain pool: parallel map whose observable behaviour is
   byte-identical for any job count. See pool.mli for the contract. *)

type deferred = Thunk of (unit -> unit) | Charge of Vclock.stage * float

type task = { index : int; rng : Rng.t; fx : deferred Queue.t }

let index t = t.index
let rng t = t.rng
let defer t f = Queue.add (Thunk f) t.fx
let charge t stage s = Queue.add (Charge (stage, s)) t.fx

let default_jobs =
  ref
    (match Sys.getenv_opt "XPILER_JOBS" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
    | None -> 1)

let jobs () = !default_jobs
let set_jobs n = if n > 0 then default_jobs := n

(* Effective parallelism is capped by the cores actually available: extra
   domains on an oversubscribed host cannot run concurrently, yet every live
   domain must join each stop-the-world minor collection, so they make things
   strictly slower. The replay contract makes the clamp invisible except in
   wall-clock. Overridable (tests force real domains even on one core). *)
let max_domains =
  ref
    (match Sys.getenv_opt "XPILER_MAX_DOMAINS" with
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ())

let get_max_domains () = !max_domains
let set_max_domains n = if n > 0 then max_domains := n

(* Nested [map] calls (a pooled task that itself pools) run inline: domains
   spawning domains would oversubscribe, and the replay contract already
   guarantees the results are the same either way. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ---- self-stats ---------------------------------------------------------
   The pool cannot depend on the metrics registry (xpiler_obs depends on
   xpiler_util), so it keeps its own counters and the registry pulls them at
   snapshot time. Wall-clock numbers are inherently schedule-dependent; the
   registry classifies everything derived from here as unstable. *)

let latency_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

type stats = {
  maps : int;  (** completed [map] calls *)
  tasks : int;  (** tasks executed across all maps *)
  busy_seconds : float;  (** sum of per-task wall time across all domains *)
  wall_seconds : float;  (** sum of wall time of the [map] calls themselves *)
  max_jobs : int;  (** largest effective job count seen *)
  latency_counts : int array;  (** task latencies, per {!latency_bounds} bucket, plus overflow *)
  latency_min : float;  (** fastest task, seconds; 0 before the first task *)
  latency_max : float;  (** slowest task, seconds; 0 before the first task *)
}

let stats_lock = Mutex.create ()
let s_maps = ref 0
let s_tasks = ref 0
let s_busy = ref 0.0
let s_wall = ref 0.0
let s_max_jobs = ref 0
let s_latency = Array.make (Array.length latency_bounds + 1) 0
let s_lat_min = ref infinity
let s_lat_max = ref 0.0

let note_task dt =
  Mutex.protect stats_lock (fun () ->
      incr s_tasks;
      s_busy := !s_busy +. dt;
      s_lat_min := Float.min !s_lat_min dt;
      s_lat_max := Float.max !s_lat_max dt;
      let n = Array.length latency_bounds in
      let rec bucket i = if i >= n || dt <= latency_bounds.(i) then i else bucket (i + 1) in
      let b = bucket 0 in
      s_latency.(b) <- s_latency.(b) + 1)

let note_map ~jobs dt =
  Mutex.protect stats_lock (fun () ->
      incr s_maps;
      s_wall := !s_wall +. dt;
      if jobs > !s_max_jobs then s_max_jobs := jobs)

let stats () =
  Mutex.protect stats_lock (fun () ->
      {
        maps = !s_maps;
        tasks = !s_tasks;
        busy_seconds = !s_busy;
        wall_seconds = !s_wall;
        max_jobs = !s_max_jobs;
        latency_counts = Array.copy s_latency;
        latency_min = (if !s_tasks = 0 then 0.0 else !s_lat_min);
        latency_max = !s_lat_max;
      })

let reset_stats () =
  Mutex.protect stats_lock (fun () ->
      s_maps := 0;
      s_tasks := 0;
      s_busy := 0.0;
      s_wall := 0.0;
      s_max_jobs := 0;
      Array.fill s_latency 0 (Array.length s_latency) 0;
      s_lat_min := infinity;
      s_lat_max := 0.0)

(* Independent per-task streams: a task's RNG depends on (seed, index) only,
   never on the job count or the schedule. *)
let task_seed seed i = Hashtbl.hash (seed, i, "xpiler-pool")

(* ---- worker lifetime ----------------------------------------------------
   Helper domains are spawned per [map] call and joined before it returns.
   A persistent pool (workers parked on a condition variable between jobs)
   was tried and rejected: on OCaml 5 every live domain takes part in
   stop-the-world minor collections, and measurement showed idle domains —
   blocked or spinning — slowing allocation-heavy *serial* code elsewhere in
   the process by 20-100x. [Domain.spawn]+[join] costs ~1ms per helper,
   which a parallel section worth parallelising amortises easily, and joined
   domains leave no residue. *)

let map ?jobs:j ?(seed = 0) ?clock f inputs =
  let j = min (match j with Some j -> j | None -> jobs ()) !max_domains in
  let items = Array.of_list inputs in
  let n = Array.length items in
  let tasks =
    Array.init n (fun i -> { index = i; rng = Rng.create (task_seed seed i); fx = Queue.create () })
  in
  let results = Array.make n None in
  let run i =
    let t0 = Unix.gettimeofday () in
    let r =
      try Ok (f tasks.(i) items.(i))
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    note_task (Unix.gettimeofday () -. t0);
    results.(i) <- Some r
  in
  let map_t0 = Unix.gettimeofday () in
  (if j <= 1 || n <= 1 || Domain.DLS.get in_worker then
     for i = 0 to n - 1 do
       run i
     done
   else begin
     let next = Atomic.make 0 in
     let pull () =
       let rec loop () =
         let i = Atomic.fetch_and_add next 1 in
         if i < n then begin
           run i;
           loop ()
         end
       in
       loop ()
     in
     let helpers =
       List.init
         (min (j - 1) (n - 1))
         (fun _ ->
           Domain.spawn (fun () ->
               Domain.DLS.set in_worker true;
               pull ()))
     in
     (* the caller works too; its tasks must still see nested maps as inline *)
     let saved = Domain.DLS.get in_worker in
     Domain.DLS.set in_worker true;
     Fun.protect
       ~finally:(fun () ->
         Domain.DLS.set in_worker saved;
         List.iter Domain.join helpers)
       (fun () -> pull ())
   end);
  note_map ~jobs:(max 1 (min j (max n 1))) (Unix.gettimeofday () -. map_t0);
  (* Deterministic replay: per-task effect buffers drain in input order on
     the calling domain, so clock observers and deferred trace emission see
     the exact sequential event stream. The first failing task (by input
     order) re-raises after the effects of the tasks before it. *)
  let out = ref [] in
  for i = 0 to n - 1 do
    Queue.iter
      (function
        | Thunk g -> g ()
        | Charge (stage, s) -> (
          match clock with Some c -> Vclock.charge c stage s | None -> ()))
      tasks.(i).fx;
    match results.(i) with
    | Some (Ok v) -> out := v :: !out
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> invalid_arg "Pool.map: task did not run"
  done;
  List.rev !out
