(* Durable knowledge store. See store.mli for the design contract. *)

open Xpiler_tuning
module Memo = Xpiler_smt.Memo
module Problem = Xpiler_smt.Problem
module Metrics = Xpiler_obs.Metrics
module Fsx = Xpiler_util.Fsx

(* All store meters are unstable: transposition appends happen inside whole
   translations that the bench harness may run in parallel, so which
   translation appends a shared state first depends on the schedule. The
   deterministic artifact is the reconstructed table contents, not these
   meters. *)
let m_append_schedule =
  Metrics.counter ~stable:false ~help:"records appended to the store WAL by kind"
    ~labels:[ ("kind", "schedule") ] "xpiler_store_records_total"

let m_append_transposition =
  Metrics.counter ~stable:false ~labels:[ ("kind", "transposition") ] "xpiler_store_records_total"

let m_append_memo =
  Metrics.counter ~stable:false ~labels:[ ("kind", "solver_memo") ] "xpiler_store_records_total"

let m_loaded_schedule =
  Metrics.counter ~stable:false ~help:"records replayed from the store into memory by kind"
    ~labels:[ ("kind", "schedule") ] "xpiler_store_loaded_total"

let m_loaded_transposition =
  Metrics.counter ~stable:false ~labels:[ ("kind", "transposition") ] "xpiler_store_loaded_total"

let m_loaded_memo =
  Metrics.counter ~stable:false ~labels:[ ("kind", "solver_memo") ] "xpiler_store_loaded_total"

let m_torn =
  Metrics.counter ~stable:false ~help:"torn WAL tails truncated to a valid prefix at load"
    "xpiler_store_torn_tails_total"

let m_corrupt_snap =
  Metrics.counter ~stable:false ~help:"snapshots found corrupt at load (rebuilt from the log)"
    "xpiler_store_corrupt_snapshots_total"

let m_dropped =
  Metrics.counter ~stable:false ~help:"checksummed frames whose payload failed to decode"
    "xpiler_store_dropped_records_total"

let m_compactions =
  Metrics.counter ~stable:false ~help:"snapshot/compaction passes" "xpiler_store_compactions_total"

let m_bytes = Metrics.gauge ~stable:false ~help:"on-disk store size" "xpiler_store_bytes"

(* ---- records ------------------------------------------------------------- *)

type record =
  | Schedule of { signature : int; entry : Schedule_db.entry }
  | Transposition of Transposition.Key.t * Transposition.entry
  | Solver_memo of Memo.Key.t * Memo.entry

(* Shard key: the shape-wildcard structural signature where one exists
   (schedule entries carry it; transposition keys derive it from their
   kernel), else the problem's structural hash — so a fleet splitting the
   keyspace by shard keeps every shape of one operator structure, and its
   solver problems, groupable. *)
let shard_hash = function
  | Schedule { signature; _ } -> signature
  | Transposition (k, _) -> Schedule_db.signature k.Transposition.Key.platform k.Transposition.Key.kernel
  | Solver_memo (k, _) -> Problem.hash k.Memo.Key.problem

let kind_of = function
  | Schedule _ -> `Schedule
  | Transposition _ -> `Transposition
  | Solver_memo _ -> `Memo

(* ---- layout -------------------------------------------------------------- *)

type t = {
  dir : string;
  shards : int;
  mutex : Mutex.t;
  channels : out_channel option array;  (* lazily opened per-shard appenders *)
}

let dir t = t.dir
let shards t = t.shards
let meta_file dir = Filename.concat dir "STORE"
let wal_path t i = Filename.concat t.dir (Printf.sprintf "shard-%03d.wal" i)
let snap_path t i = Filename.concat t.dir (Printf.sprintf "shard-%03d.snap" i)
let format_version = 1

let env_dir () =
  match Sys.getenv_opt "XPILER_STORE_DIR" with Some d when d <> "" -> Some d | _ -> None

let default_shards () =
  match Sys.getenv_opt "XPILER_STORE_SHARDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 && n <= 1024 -> n | _ -> 4)
  | None -> 4

let write_meta ~shards path =
  let oc = open_out_bin path in
  Printf.fprintf oc "xpiler-store/%d\nshards=%d\n" format_version shards;
  close_out oc

let read_meta path =
  match Fsx.read_file path with
  | Error m -> Error m
  | Ok text -> (
    match String.split_on_char '\n' text with
    | version :: rest when version = Printf.sprintf "xpiler-store/%d" format_version -> (
      let shards =
        List.find_map
          (fun line ->
            match String.split_on_char '=' line with
            | [ "shards"; n ] -> int_of_string_opt n
            | _ -> None)
          rest
      in
      match shards with
      | Some n when n > 0 -> Ok n
      | _ -> Error (path ^ ": missing or invalid shards field"))
    | v :: _ -> Error (Printf.sprintf "%s: unsupported store format %S" path v)
    | [] -> Error (path ^ ": empty meta file"))

let open_store ?shards ~dir () =
  match Fsx.mkdir_p dir with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e))
  | () ->
    let meta = meta_file dir in
    let shard_count =
      if Sys.file_exists meta then read_meta meta
      else begin
        let n = match shards with Some n when n > 0 -> n | _ -> default_shards () in
        write_meta ~shards:n meta;
        Ok n
      end
    in
    Result.map
      (fun shards ->
        { dir; shards; mutex = Mutex.create (); channels = Array.make shards None })
      shard_count

let close_channels_locked t =
  Array.iteri
    (fun i oc ->
      match oc with
      | Some oc ->
        close_out_noerr oc;
        t.channels.(i) <- None
      | None -> ())
    t.channels

let close t = Mutex.protect t.mutex (fun () -> close_channels_locked t)

let disk_bytes t =
  let add acc path = if Sys.file_exists path then acc + (Unix.stat path).Unix.st_size else acc in
  let acc = ref 0 in
  for i = 0 to t.shards - 1 do
    acc := add (add !acc (wal_path t i)) (snap_path t i)
  done;
  !acc

(* ---- appending (the observer path) --------------------------------------- *)

let shard_of t r = (shard_hash r land max_int) mod t.shards

let append t r =
  let payload = Marshal.to_string r [] in
  let i = shard_of t r in
  Mutex.protect t.mutex (fun () ->
      let oc =
        match t.channels.(i) with
        | Some oc -> oc
        | None ->
          let oc = Wal.open_append ~magic:Wal.wal_magic (wal_path t i) in
          t.channels.(i) <- Some oc;
          oc
      in
      Wal.append oc payload);
  Metrics.inc
    (match kind_of r with
    | `Schedule -> m_append_schedule
    | `Transposition -> m_append_transposition
    | `Memo -> m_append_memo)

(* ---- loading ------------------------------------------------------------- *)

type counts = { schedule : int; transposition : int; solver_memo : int }

let zero_counts = { schedule = 0; transposition = 0; solver_memo = 0 }
let total c = c.schedule + c.transposition + c.solver_memo

type load_stats = {
  loaded : counts;
  torn_tails : int;  (** WAL tails truncated to a valid prefix *)
  corrupt_snapshots : int;  (** snapshots ignored or cut short; the log still replays *)
  dropped : int;  (** checksummed frames whose payload failed to decode *)
}

let decode payload : record option =
  match (Marshal.from_string payload 0 : record) with
  | r -> Some r
  | exception _ -> None

let load ?(db = Schedule_db.default) t =
  let loaded = ref zero_counts and torn_tails = ref 0 in
  let corrupt_snapshots = ref 0 and dropped = ref 0 in
  let apply payload =
    match decode payload with
    | None ->
      incr dropped;
      Metrics.inc m_dropped
    | Some (Schedule { signature; entry }) ->
      Schedule_db.restore db ~signature entry;
      loaded := { !loaded with schedule = !loaded.schedule + 1 };
      Metrics.inc m_loaded_schedule
    | Some (Transposition (k, e)) ->
      Transposition.restore k e;
      loaded := { !loaded with transposition = !loaded.transposition + 1 };
      Metrics.inc m_loaded_transposition
    | Some (Solver_memo (k, e)) ->
      Memo.restore k e;
      loaded := { !loaded with solver_memo = !loaded.solver_memo + 1 };
      Metrics.inc m_loaded_memo
  in
  Mutex.protect t.mutex (fun () ->
      (* reading through live appenders is safe (appends flush whole
         frames), but reload semantics are clearest from closed files *)
      close_channels_locked t;
      for i = 0 to t.shards - 1 do
        (* snapshot first, then the log: replay order is write order, so
           Hashtbl.replace in the restores gives last-wins for free *)
        (match Wal.read ~magic:Wal.snap_magic (snap_path t i) with
        | Wal.Missing -> ()
        | Wal.Bad_header ->
          incr corrupt_snapshots;
          Metrics.inc m_corrupt_snap
        | Wal.Data { payloads; torn; _ } ->
          (* a snapshot is written atomically, so a torn one is corruption,
             not a crash tail — but its valid prefix is still sound data *)
          if torn then begin
            incr corrupt_snapshots;
            Metrics.inc m_corrupt_snap
          end;
          List.iter apply payloads);
        match Wal.read ~magic:Wal.wal_magic (wal_path t i) with
        | Wal.Missing -> ()
        | Wal.Bad_header ->
          incr torn_tails;
          Metrics.inc m_torn
        | Wal.Data { payloads; torn; _ } ->
          if torn then begin
            incr torn_tails;
            Metrics.inc m_torn
          end;
          List.iter apply payloads
      done);
  Metrics.set m_bytes (float_of_int (disk_bytes t));
  { loaded = !loaded; torn_tails = !torn_tails; corrupt_snapshots = !corrupt_snapshots;
    dropped = !dropped }

(* ---- attach/detach (global observer wiring) ------------------------------ *)

let attached : (t * Schedule_db.t) option ref = ref None

let detach () =
  match !attached with
  | None -> ()
  | Some (t, db) ->
    Schedule_db.set_observer db None;
    Transposition.set_observer None;
    Memo.set_observer None;
    close t;
    attached := None

let attach ?(db = Schedule_db.default) t =
  detach ();
  Schedule_db.set_observer db
    (Some (fun signature entry -> append t (Schedule { signature; entry })));
  Transposition.set_observer (Some (fun k e -> append t (Transposition (k, e))));
  Memo.set_observer (Some (fun k e -> append t (Solver_memo (k, e))));
  attached := Some (t, db)

let active () = Option.map fst !attached

let ensure ?db ~dir () =
  match !attached with
  | Some (t, _) when t.dir = dir -> Ok t
  | _ -> (
    match open_store ~dir () with
    | Error _ as e -> e
    | Ok t ->
      ignore (load ?db t);
      attach ?db t;
      Ok t)

(* ---- compaction ---------------------------------------------------------- *)

(* last-wins dedup key: the same structural identity the in-memory tables
   use, so compaction folds every rewrite of a key into its final entry *)
module DKey = struct
  type t = KSched of int | KTrans of Transposition.Key.t | KMemo of Memo.Key.t

  let equal a b =
    match (a, b) with
    | KSched x, KSched y -> x = y
    | KTrans x, KTrans y -> Transposition.Key.equal x y
    | KMemo x, KMemo y -> Memo.Key.equal x y
    | _ -> false

  let hash = function
    | KSched s -> Hashtbl.hash s
    | KTrans k -> Transposition.Key.hash k
    | KMemo k -> Memo.Key.hash k
end

module DTbl = Hashtbl.Make (DKey)

let dkey = function
  | Schedule { signature; _ } -> DKey.KSched signature
  | Transposition (k, _) -> DKey.KTrans k
  | Solver_memo (k, _) -> DKey.KMemo k

type compact_stats = { records_in : int; records_out : int; bytes : int }

let rm_rf_flat d =
  (match Sys.readdir d with
  | names -> Array.iter (fun n -> try Sys.remove (Filename.concat d n) with Sys_error _ -> ()) names
  | exception Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error (_, _, _) -> ()

let compact t =
  Mutex.protect t.mutex @@ fun () ->
  close_channels_locked t;
  (* scratch-dir + rename: every shard's new snapshot (and fresh empty log)
     is staged fully, then renamed into place — readers and a crash at any
     point see either the old pair or the new one, never a half-written
     file *)
  let scratch = Filename.concat t.dir (Printf.sprintf "compact.%d" (Unix.getpid ())) in
  let records_in = ref 0 and records_out = ref 0 in
  match
    Fsx.mkdir_p scratch;
    for i = 0 to t.shards - 1 do
      let payloads =
        let from_file magic path =
          match Wal.read ~magic path with
          | Wal.Missing | Wal.Bad_header -> []
          | Wal.Data { payloads; _ } -> payloads
        in
        from_file Wal.snap_magic (snap_path t i) @ from_file Wal.wal_magic (wal_path t i)
      in
      records_in := !records_in + List.length payloads;
      (* last-wins dedup, output in first-seen order (deterministic given
         the file contents); undecodable payloads are dropped here — this
         is where a store heals *)
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
      let scratch_snap = Filename.concat scratch (Printf.sprintf "shard-%03d.snap" i) in
      let scratch_wal = Filename.concat scratch (Printf.sprintf "shard-%03d.wal" i) in
      let oc = open_out_bin scratch_snap in
      output_string oc Wal.snap_magic;
      List.iter
        (fun k ->
          incr records_out;
          output_string oc (Wal.frame (DTbl.find latest k)))
        (List.rev !order);
      close_out oc;
      Wal.create ~magic:Wal.wal_magic scratch_wal
    done;
    (* flip: snapshot before log per shard, so a crash in between leaves
       the old log alongside the new snapshot — replaying both is merely
       idempotent (same keys, same final entries), never lossy *)
    for i = 0 to t.shards - 1 do
      Sys.rename (Filename.concat scratch (Printf.sprintf "shard-%03d.snap" i)) (snap_path t i);
      Sys.rename (Filename.concat scratch (Printf.sprintf "shard-%03d.wal" i)) (wal_path t i)
    done
  with
  | () ->
    rm_rf_flat scratch;
    Metrics.inc m_compactions;
    let bytes = disk_bytes t in
    Metrics.set m_bytes (float_of_int bytes);
    Ok { records_in = !records_in; records_out = !records_out; bytes }
  | exception Sys_error m ->
    rm_rf_flat scratch;
    Error ("compaction failed: " ^ m)
  | exception Unix.Unix_error (e, fn, _) ->
    rm_rf_flat scratch;
    Error (Printf.sprintf "compaction failed: %s: %s" fn (Unix.error_message e))

(* ---- stats / maintenance (the [xpiler store] subcommand) ----------------- *)

type info = {
  info_dir : string;
  info_shards : int;
  snapshot_records : counts;
  wal_records : counts;
  bytes : int;
  damaged : bool;  (** any torn tail or corrupt header seen *)
}

let scan t =
  let damaged = ref false in
  let count magic path =
    match Wal.read ~magic path with
    | Wal.Missing -> zero_counts
    | Wal.Bad_header ->
      damaged := true;
      zero_counts
    | Wal.Data { payloads; torn; _ } ->
      if torn then damaged := true;
      List.fold_left
        (fun c payload ->
          match decode payload with
          | Some (Schedule _) -> { c with schedule = c.schedule + 1 }
          | Some (Transposition _) -> { c with transposition = c.transposition + 1 }
          | Some (Solver_memo _) -> { c with solver_memo = c.solver_memo + 1 }
          | None ->
            damaged := true;
            c)
        zero_counts payloads
  in
  let add a b =
    { schedule = a.schedule + b.schedule;
      transposition = a.transposition + b.transposition;
      solver_memo = a.solver_memo + b.solver_memo
    }
  in
  let snap = ref zero_counts and wal = ref zero_counts in
  for i = 0 to t.shards - 1 do
    snap := add !snap (count Wal.snap_magic (snap_path t i));
    wal := add !wal (count Wal.wal_magic (wal_path t i))
  done;
  { info_dir = t.dir; info_shards = t.shards; snapshot_records = !snap; wal_records = !wal;
    bytes = disk_bytes t; damaged = !damaged }

let clear_files t =
  Mutex.protect t.mutex @@ fun () ->
  close_channels_locked t;
  let removed = ref 0 in
  for i = 0 to t.shards - 1 do
    let snap = snap_path t i and wal = wal_path t i in
    if Sys.file_exists snap then begin
      (try Sys.remove snap with Sys_error _ -> ());
      incr removed
    end;
    if Sys.file_exists wal then begin
      (try Sys.remove wal with Sys_error _ -> ());
      incr removed
    end
  done;
  Metrics.set m_bytes 0.0;
  !removed

(* ---- fingerprinting (determinism tests) ---------------------------------- *)

(* Digest of the three in-memory stores. Only meaningful for comparing
   states produced the same way (e.g. both freshly loaded from disk):
   Marshal bytes can differ across *construction* paths for structurally
   equal values, but are stable for equal replay inputs. *)
let fingerprint ?(db = Schedule_db.default) () =
  let items = ref [] in
  Schedule_db.fold db
    (fun s e () ->
      items :=
        Printf.sprintf "S %d %s" s (Digest.to_hex (Digest.string (Marshal.to_string e [])))
        :: !items)
    ();
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
