(* Small list helpers shared across the tuner and benches. *)

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n xs

let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

(* [xs] folded into the best [n] so far, best first, in [best] and their
   scores in [scores]: an element goes after every kept one that scores at
   least as well (by [Float.compare], so a nan scores lowest), so ties keep
   input order; the worst kept element drops out when [k] are kept *)
let rec keep ~k ~score best scores n = function
  | [] -> n
  | x :: rest ->
    let s = score x in
    let p = ref 0 in
    while !p < n && Float.compare scores.(!p) s >= 0 do
      incr p
    done;
    if !p >= k then keep ~k ~score best scores n rest
    else begin
      let last = min n (k - 1) in
      for j = last downto !p + 1 do
        best.(j) <- best.(j - 1);
        scores.(j) <- scores.(j - 1)
      done;
      best.(!p) <- x;
      scores.(!p) <- s;
      keep ~k ~score best scores (last + 1) rest
    end

(* [best.(0 .. j)] consed onto [acc] *)
let rec prefix best j acc = if j < 0 then acc else prefix best (j - 1) (best.(j) :: acc)

let top_k ~k ~score xs =
  match xs with
  | x0 :: _ when k > 0 ->
    let best = Array.make k x0 in
    prefix best (keep ~k ~score best (Array.make k 0.0) 0 xs - 1) []
  | _ -> []
