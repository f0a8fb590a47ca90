(* Shared filesystem helpers. See fsx.mli. *)

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    (* tolerate a concurrent creator winning the race between the
       [file_exists] probe and here: EEXIST/EISDIR means the directory is
       there, which is all we wanted *)
    try Unix.mkdir d 0o755 with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ()
  end
