(* Durable knowledge store. See store.mli for the design contract. *)

open Xpiler_tuning
module Memo = Xpiler_smt.Memo
module Metrics = Xpiler_obs.Metrics
module Fsx = Xpiler_util.Fsx

(* All store meters are unstable: appends happen inside whole translations
   that the bench harness may run in parallel, so their order and their
   count across a store's life depend on the schedule and on what earlier
   runs persisted. The deterministic artifact is the reconstructed table
   contents, not these meters. *)
let m_append_transposition =
  Metrics.counter ~stable:false ~help:"records appended to the store WAL by kind"
    ~labels:[ ("kind", "transposition") ] "xpiler_store_records_total"

let m_append_memo =
  Metrics.counter ~stable:false ~labels:[ ("kind", "solver_memo") ] "xpiler_store_records_total"

let m_loaded_transposition =
  Metrics.counter ~stable:false ~help:"records replayed from the store into memory by kind"
    ~labels:[ ("kind", "transposition") ] "xpiler_store_loaded_total"

let m_loaded_memo =
  Metrics.counter ~stable:false ~labels:[ ("kind", "solver_memo") ] "xpiler_store_loaded_total"

let m_torn =
  Metrics.counter ~stable:false ~help:"torn WAL tails truncated to a valid prefix at load"
    "xpiler_store_torn_tails_total"

let m_dropped =
  Metrics.counter ~stable:false ~help:"checksummed frames whose payload failed to decode"
    "xpiler_store_dropped_records_total"

let m_compactions =
  Metrics.counter ~stable:false ~help:"compaction passes" "xpiler_store_compactions_total"

let m_bytes = Metrics.gauge ~stable:false ~help:"on-disk store size" "xpiler_store_bytes"

(* ---- records ------------------------------------------------------------- *)

type record =
  | Transposition of Transposition.Key.t * Transposition.entry
  | Solver_memo of Memo.Key.t * Memo.entry

(* ---- layout -------------------------------------------------------------- *)

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable channel : out_channel option;  (* the lazily opened appender *)
}

let dir t = t.dir
let log_path t = Filename.concat t.dir "store.wal"

let env_dir () =
  match Sys.getenv_opt "XPILER_STORE_DIR" with Some d when d <> "" -> Some d | _ -> None

let open_store ~dir () =
  match Fsx.mkdir_p dir with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e))
  | () ->
    match Sys.is_directory dir with
    | true -> Ok { dir; mutex = Mutex.create (); channel = None }
    | false -> Error (dir ^ ": not a directory")
    | exception Sys_error m -> Error m

let close_locked t =
  Option.iter close_out_noerr t.channel;
  t.channel <- None

let close t = Mutex.protect t.mutex (fun () -> close_locked t)

let disk_bytes t =
  let path = log_path t in
  if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

(* ---- appending (the observer path) --------------------------------------- *)

let append t r =
  let payload = Marshal.to_string r [] in
  Mutex.protect t.mutex (fun () ->
      let oc =
        match t.channel with
        | Some oc -> oc
        | None ->
          let oc = Wal.open_append (log_path t) in
          t.channel <- Some oc;
          oc
      in
      Wal.append oc payload);
  Metrics.inc
    (match r with
    | Transposition _ -> m_append_transposition
    | Solver_memo _ -> m_append_memo)

(* ---- loading ------------------------------------------------------------- *)

type counts = { transposition : int; solver_memo : int }

let zero_counts = { transposition = 0; solver_memo = 0 }
let total c = c.transposition + c.solver_memo

type load_stats = {
  loaded : counts;
  torn_tails : int;  (** logs cut short or with a corrupt header *)
  dropped : int;  (** checksummed frames whose payload failed to decode *)
}

let decode payload : record option =
  match (Marshal.from_string payload 0 : record) with
  | r -> Some r
  | exception _ -> None

let load t =
  let loaded = ref zero_counts and torn_tails = ref 0 in
  let dropped = ref 0 in
  let apply payload =
    match decode payload with
    | None ->
      incr dropped;
      Metrics.inc m_dropped
    | Some (Transposition (k, e)) ->
      Transposition.restore k e;
      loaded := { !loaded with transposition = !loaded.transposition + 1 };
      Metrics.inc m_loaded_transposition
    | Some (Solver_memo (k, e)) ->
      Memo.restore k e;
      loaded := { !loaded with solver_memo = !loaded.solver_memo + 1 };
      Metrics.inc m_loaded_memo
  in
  let count_torn () =
    incr torn_tails;
    Metrics.inc m_torn
  in
  Mutex.protect t.mutex (fun () ->
      (* reading through a live appender is safe (appends flush whole
         frames), but reload semantics are clearest from a closed file *)
      close_locked t;
      (* replay order is write order, so Hashtbl.replace in the restores
         gives last-wins for free *)
      match Wal.read (log_path t) with
      | Wal.Missing -> ()
      | Wal.Bad_header -> count_torn ()
      | Wal.Data { payloads; torn; _ } ->
        if torn then count_torn ();
        List.iter apply payloads);
  Metrics.set m_bytes (float_of_int (disk_bytes t));
  { loaded = !loaded; torn_tails = !torn_tails; dropped = !dropped }

(* ---- attach/detach (global observer wiring) ------------------------------ *)

(* an atomic so that, when appends from several domains fail at once,
   exactly one of them wins the detach and prints the warning *)
let attached : t option Atomic.t = Atomic.make None

let unhook = function
  | None -> ()
  | Some t ->
    Transposition.set_observer None;
    Memo.set_observer None;
    close t

let detach () = unhook (Atomic.exchange attached None)

let attach t =
  detach ();
  (* the store is a cache: an I/O error on the log detaches it with one
     warning and leaves the translation that learned the record untouched *)
  let disable m =
    let cur = Atomic.get attached in
    match cur with
    | Some t' when t' == t && Atomic.compare_and_set attached cur None ->
      unhook cur;
      Printf.eprintf "warning: knowledge store disabled: %s: %s\n%!" t.dir m
    | _ -> ()
  in
  let write r =
    match append t r with
    | () -> ()
    | exception Sys_error m -> disable m
    | exception Unix.Unix_error (e, _, _) -> disable (Unix.error_message e)
  in
  Transposition.set_observer (Some (fun k e -> write (Transposition (k, e))));
  Memo.set_observer (Some (fun k e -> write (Solver_memo (k, e))));
  Atomic.set attached (Some t)

let active () = Atomic.get attached

let ensure ~dir () =
  match Atomic.get attached with
  | Some t when t.dir = dir -> Ok t
  | _ -> (
    match open_store ~dir () with
    | Error _ as e -> e
    | Ok t ->
      ignore (load t);
      attach t;
      Ok t)

(* ---- compaction ---------------------------------------------------------- *)

(* last-wins dedup key: the same structural identity the in-memory tables
   use, so compaction folds every rewrite of a key into its final entry *)
module DKey = struct
  type t = KTrans of Transposition.Key.t | KMemo of Memo.Key.t

  let equal a b =
    match (a, b) with
    | KTrans x, KTrans y -> Transposition.Key.equal x y
    | KMemo x, KMemo y -> Memo.Key.equal x y
    | _ -> false

  let hash = function
    | KTrans k -> Transposition.Key.hash k
    | KMemo k -> Memo.Key.hash k
end

module DTbl = Hashtbl.Make (DKey)

let dkey = function
  | Transposition (k, _) -> DKey.KTrans k
  | Solver_memo (k, _) -> DKey.KMemo k

type compact_stats = { records_in : int; records_out : int; bytes : int }

let compact t =
  Mutex.protect t.mutex @@ fun () ->
  close_locked t;
  let payloads =
    match Wal.read (log_path t) with
    | Wal.Missing | Wal.Bad_header -> []
    | Wal.Data { payloads; _ } -> payloads
  in
  (* last-wins dedup, output in first-seen order (deterministic given the
     file contents); undecodable payloads are dropped here — this is where
     a store heals *)
  let latest : string DTbl.t = DTbl.create 256 in
  let order = ref [] in
  List.iter
    (fun payload ->
      match decode payload with
      | None -> ()
      | Some r ->
        let k = dkey r in
        if not (DTbl.mem latest k) then order := k :: !order;
        DTbl.replace latest k payload)
    payloads;
  let kept = List.rev_map (DTbl.find latest) !order in
  (* a rename of one file is atomic: a crash leaves the old log or the
     compacted one *)
  match Wal.write_atomic (log_path t) kept with
  | () ->
    Metrics.inc m_compactions;
    let bytes = disk_bytes t in
    Metrics.set m_bytes (float_of_int bytes);
    Ok { records_in = List.length payloads; records_out = List.length kept; bytes }
  | exception Sys_error m -> Error ("compaction failed: " ^ m)

(* ---- stats / maintenance (the [xpiler store] subcommand) ----------------- *)

type info = {
  info_dir : string;
  records : counts;
  bytes : int;
  damaged : bool;  (** a torn tail, corrupt header or undecodable frame seen *)
}

let scan t =
  let damaged = ref false in
  let records =
    match Wal.read (log_path t) with
    | Wal.Missing -> zero_counts
    | Wal.Bad_header ->
      damaged := true;
      zero_counts
    | Wal.Data { payloads; torn; _ } ->
      if torn then damaged := true;
      List.fold_left
        (fun c payload ->
          match decode payload with
          | Some (Transposition _) -> { c with transposition = c.transposition + 1 }
          | Some (Solver_memo _) -> { c with solver_memo = c.solver_memo + 1 }
          | None ->
            damaged := true;
            c)
        zero_counts payloads
  in
  { info_dir = t.dir; records; bytes = disk_bytes t; damaged = !damaged }

let clear_files t =
  Mutex.protect t.mutex @@ fun () ->
  close_locked t;
  let log = log_path t in
  let removed =
    List.length
      (List.filter
         (fun path -> match Sys.remove path with () -> true | exception Sys_error _ -> false)
         [ log; log ^ ".tmp" ])
  in
  Metrics.set m_bytes 0.0;
  removed

(* ---- fingerprinting (determinism tests) ---------------------------------- *)

(* Digest of the session's two in-memory stores. Only meaningful for
   comparing states produced the same way (e.g. both freshly loaded from disk):
   Marshal bytes can differ across *construction* paths for structurally
   equal values, but are stable for equal replay inputs. *)
let fingerprint () =
  let items = ref [] in
  Transposition.fold
    (fun k e () ->
      items :=
        Printf.sprintf "T %d %s" (Transposition.Key.hash k)
          (Digest.to_hex (Digest.string (Marshal.to_string (k, e) [])))
        :: !items)
    ();
  Memo.fold
    (fun k e () ->
      items :=
        Printf.sprintf "M %d %s" (Memo.Key.hash k)
          (Digest.to_hex (Digest.string (Marshal.to_string (k, e) [])))
        :: !items)
    ();
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare !items)))
