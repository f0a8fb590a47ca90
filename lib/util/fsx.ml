(* Shared filesystem helpers. See fsx.mli. *)

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    (* tolerate a concurrent creator winning the race between the
       [file_exists] probe and here: EEXIST/EISDIR means the directory is
       there, which is all we wanted *)
    try Unix.mkdir d 0o755 with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ()
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* [in_channel_length] raises on a directory, which opens fine *)
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception End_of_file -> Error (path ^ ": truncated while reading")
        | exception Sys_error m -> Error (path ^ ": " ^ m))
