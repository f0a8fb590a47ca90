type doc = { id : string; text : string }

(* A term's documents ([in_docs]) and its count in each: the number of
   documents is the term's document frequency *)
type posting = { in_docs : int array; counts : int array }

type index = {
  docs : doc array;
  doc_len : int array;
  avg_len : float;
  postings : (string, posting) Hashtbl.t;
}

let tokenize text =
  let buf = Buffer.create 16 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := String.lowercase_ascii (Buffer.contents buf) :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then
        Buffer.add_char buf c
      else flush ())
    text;
  flush ();
  List.rev !tokens

let build docs =
  let docs = Array.of_list docs in
  let doc_tokens = Array.map (fun d -> tokenize d.text) docs in
  let doc_len = Array.map List.length doc_tokens in
  let total = Array.fold_left ( + ) 0 doc_len in
  let avg_len = if Array.length docs = 0 then 1.0 else float_of_int total /. float_of_int (Array.length docs) in
  let lists = Hashtbl.create 64 and counts = Hashtbl.create 64 in
  Array.iteri
    (fun i toks ->
      (* each distinct term of the document, with its count *)
      Hashtbl.clear counts;
      List.iter
        (fun t -> Hashtbl.replace counts t (1 + Option.value ~default:0 (Hashtbl.find_opt counts t)))
        toks;
      Hashtbl.iter
        (fun t c ->
          Hashtbl.replace lists t ((i, c) :: Option.value ~default:[] (Hashtbl.find_opt lists t)))
        counts)
    doc_tokens;
  let postings = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter
    (fun t ps ->
      let ps = Array.of_list ps in
      Hashtbl.replace postings t { in_docs = Array.map fst ps; counts = Array.map snd ps })
    lists;
  { docs; doc_len; avg_len; postings }

let k1 = 1.5
let b = 0.75

let search idx query =
  let n = Array.length idx.docs in
  if n = 0 then []
  else begin
    (* each document's score adds up its terms in query order, the order of
       a sum over the query per document, so every score is that sum's *)
    let scores = Array.make n 0.0 in
    List.iter
      (fun t ->
        match Hashtbl.find_opt idx.postings t with
        | None -> ()
        | Some { in_docs; counts } ->
          let d = Array.length in_docs in
          let idf = log ((float_of_int (n - d) +. 0.5) /. (float_of_int d +. 0.5) +. 1.0) in
          for k = 0 to d - 1 do
            let i = in_docs.(k) in
            let f = float_of_int counts.(k) and len = float_of_int idx.doc_len.(i) in
            scores.(i) <-
              scores.(i)
              +. idf
                 *. (f *. (k1 +. 1.0))
                 /. (f +. (k1 *. (1.0 -. b +. (b *. len /. idx.avg_len))))
          done)
      (tokenize query);
    Array.to_list (Array.mapi (fun i doc -> (doc.id, scores.(i))) idx.docs)
    |> List.filter (fun (_, s) -> s > 0.0)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  end

let top idx query n =
  search idx query |> List.filteri (fun i _ -> i < n) |> List.map fst
