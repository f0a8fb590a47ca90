type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so Int64.to_int cannot wrap negative on 63-bit ints *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let choose_weighted t pairs =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: no positive weight";
  let target = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.choose_weighted: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 pairs

let shuffle t xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
