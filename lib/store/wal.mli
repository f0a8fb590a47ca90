(** Framed, checksummed record files — the byte-level layer under the
    durable store's log.

    {b File format}:
    {v
    8 bytes   magic: "XPWAL03\n" (the format version lives here)
    repeated  frame:
      4 bytes   payload length, u32 big-endian
      4 bytes   FNV-1a/32 checksum of the payload, u32 big-endian
      N bytes   payload (opaque to this layer)
    v}

    The reader walks frames and stops at the first short or
    checksum-failing one: a torn tail (a crash mid-append) therefore loads
    as the valid prefix, never as an error, and {!open_append} truncates
    the garbage away before new frames go after it. A file with another
    magic (including an older format) has no valid prefix at all. *)

val magic : string

val checksum : string -> int
(** FNV-1a, 32-bit (exposed for corruption-injection tests). *)

val append : out_channel -> string -> unit
(** Write one frame and flush. *)

type read =
  | Missing  (** no such file *)
  | Bad_header  (** unreadable, empty, or wrong magic: no valid prefix at all *)
  | Data of {
      payloads : string list;  (** the valid prefix, in write order *)
      valid_len : int;  (** byte length of header + valid frames *)
      torn : bool;  (** trailing bytes were dropped *)
    }

val read : string -> read

val truncate : string -> int -> unit

val write_atomic : string -> string list -> unit
(** [write_atomic path payloads] writes the magic and one frame per
    payload to [path ^ ".tmp"], then renames it over [path]: readers and a
    crash at any point see the old file or the new one, never a mix. A
    leftover [.tmp] from an interrupted write is never read and is
    overwritten by the next one. *)

val open_append : string -> out_channel
(** Open for appending, repairing first: missing or header-corrupt files
    are recreated empty, torn tails are truncated to the valid prefix. *)
