let encode events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Event.encode_line e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let decode text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) acc rest
      else begin
        match Event.decode_line line with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error m -> Error (Printf.sprintf "line %d: %s" lineno m)
      end
  in
  go 1 [] lines

let write_file path events =
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path (fun oc ->
      output_string oc (encode events))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> decode text
  | exception Sys_error m -> Error m
