(* Domain pool: parallel map with input-order results, for independent
   whole translations. See pool.mli for the contract. *)

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
   strictly slower. Results are in input order either way, so the clamp is
   invisible except in wall-clock. Overridable (tests force real domains even
   on one core). *)
let max_domains = ref (Domain.recommended_domain_count ())

let get_max_domains () = !max_domains
let set_max_domains n = if n > 0 then max_domains := n

(* ---- self-stats ---------------------------------------------------------
   Per-task wall time, summed over domains: the pool cannot depend on the
   profiler (xpiler_obs depends on xpiler_util), so it keeps its own sum. *)

type stats = { busy_seconds : float }

let busy = ref 0.0
let busy_lock = Mutex.create ()
let note_task dt = Mutex.protect busy_lock (fun () -> busy := !busy +. dt)
let stats () = Mutex.protect busy_lock (fun () -> { busy_seconds = !busy })

(* ---- worker lifetime ----------------------------------------------------
   Helper domains are spawned per [map] call and joined before it returns.
   A persistent pool (workers parked on a condition variable between jobs)
   was tried and rejected: on OCaml 5 every live domain takes part in
   stop-the-world minor collections, and measurement showed idle domains —
   blocked or spinning — slowing allocation-heavy *serial* code elsewhere in
   the process by 20-100x. [Domain.spawn]+[join] costs ~1ms per helper,
   which a parallel section worth parallelising amortises easily, and joined
   domains leave no residue. *)

let map ?jobs:j f inputs =
  let j = min (match j with Some j -> j | None -> jobs ()) !max_domains in
  let items = Array.of_list inputs in
  let n = Array.length items in
  let results = Array.make n None in
  let run i =
    let t0 = Unix.gettimeofday () in
    let r =
      try Ok (Session.fresh (fun () -> f items.(i)))
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    note_task (Unix.gettimeofday () -. t0);
    results.(i) <- Some r
  in
  (if j <= 1 || n <= 1 then
     for i = 0 to n - 1 do
       run i
     done
   else begin
     let next = Atomic.make 0 in
     let rec pull () =
       let i = Atomic.fetch_and_add next 1 in
       if i < n then begin
         run i;
         pull ()
       end
     in
     (* the caller works too *)
     let helpers = List.init (min (j - 1) (n - 1)) (fun _ -> Domain.spawn pull) in
     Fun.protect ~finally:(fun () -> List.iter Domain.join helpers) pull
   end);
  (* the first failing task by input order re-raises; later results drop *)
  let out = ref [] in
  for i = 0 to n - 1 do
    match results.(i) with
    | Some (Ok v) -> out := v :: !out
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> invalid_arg "Pool.map: task did not run"
  done;
  List.rev !out
