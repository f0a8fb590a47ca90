(** Shared filesystem helpers.

    Every subsystem that writes results to disk ([Report] CSVs, the bench
    harness) needs recursive directory creation that tolerates concurrent
    creators. It lives here so the check-then-create TOCTOU race is fixed
    in one place. *)

val mkdir_p : string -> unit
(** Create [dir] and every missing ancestor, [0o755]. Safe against
    concurrent creators: an [EEXIST]/[EISDIR] from another process (or
    thread) winning the race is success, not an error — unlike the
    [Sys.file_exists]-then-[mkdir] pattern this replaces, which raced and
    also failed outright on nested paths. *)
