(* Framed, checksummed record files — the byte-level layer under the
   durable knowledge store. See wal.mli for the format. *)

type read = Missing | Bad_header | Data of { payloads : string list; valid_len : int; torn : bool }

(* 8 bytes so a header read is one fixed-size input; bump the digit when
   the record encoding changes, and old files read as [Bad_header] *)
let magic = "XPWAL03\n"
let magic_len = String.length magic

(* FNV-1a, 32-bit: cheap, endian-free, and plenty to reject a torn or
   bit-flipped frame (we never unmarshal a payload that fails it) *)
let checksum s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) s;
  !h

let frame_header_len = 8 (* u32 BE length + u32 BE checksum *)

let put_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame payload =
  let b = Buffer.create (String.length payload + frame_header_len) in
  put_u32 b (String.length payload);
  put_u32 b (checksum payload);
  Buffer.add_string b payload;
  Buffer.contents b

let append oc payload =
  output_string oc (frame payload);
  (* flush per record: an entry is durable (modulo OS buffers) the moment
     the in-memory store learned it *)
  flush oc

(* a frame larger than this is assumed to be garbage, not data — no single
   kernel/problem record comes anywhere near it *)
let max_frame = 64 * 1024 * 1024

let read path =
  if not (Sys.file_exists path) then Missing
  else begin
    match Xpiler_util.Fsx.read_file path with
    | Error _ -> Bad_header
    | Ok text ->
      let n = String.length text in
      if n < magic_len || String.sub text 0 magic_len <> magic then Bad_header
      else begin
        (* walk frames; stop at the first short or checksum-failing one —
           everything before it is the valid prefix *)
        let rec go off acc =
          if off + frame_header_len > n then (List.rev acc, off, off <> n)
          else begin
            let len = get_u32 text off in
            let sum = get_u32 text (off + 4) in
            if len > max_frame || off + frame_header_len + len > n then
              (List.rev acc, off, true)
            else begin
              let payload = String.sub text (off + frame_header_len) len in
              if checksum payload <> sum then (List.rev acc, off, true)
              else go (off + frame_header_len + len) (payload :: acc)
            end
          end
        in
        let payloads, valid_len, torn = go magic_len [] in
        Data { payloads; valid_len; torn }
      end
  end

let truncate path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let write_atomic path payloads =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      List.iter (fun p -> output_string oc (frame p)) payloads;
      close_out oc);
  Sys.rename tmp path

(* Open for appending, repairing first: a torn tail is truncated back to
   the valid prefix (otherwise frames appended after the garbage would be
   unreachable), and an unreadable header means the file is rewritten
   empty. Returns the channel positioned at the end of the valid data. *)
let open_append path =
  (match read path with
  | Missing | Bad_header -> write_atomic path []
  | Data { valid_len; torn; _ } -> if torn then truncate path valid_len);
  open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path
