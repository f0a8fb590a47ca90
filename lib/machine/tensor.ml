open Xpiler_ir
type t = { dtype : Dtype.t; data : float array }

let create ?(dtype = Dtype.F32) n = { dtype; data = Array.make n 0.0 }
let of_array ?(dtype = Dtype.F32) data = { dtype; data }
let length t = Array.length t.data
let get t i = t.data.(i)
let set t i v = t.data.(i) <- v
let copy t = { t with data = Array.copy t.data }

let random rng ?(dtype = Dtype.F32) n =
  let data =
    Array.init n (fun _ ->
        if Dtype.is_float dtype then Xpiler_util.Rng.float rng 2.0 -. 1.0
        else float_of_int (Xpiler_util.Rng.int_in rng (-8) 7))
  in
  { dtype; data }

let close ~rtol ~atol a b = Float.abs (a -. b) <= atol +. (rtol *. Float.abs b)

(* plain loops over the float arrays: a polymorphic iterator would box
   both floats of every element *)
let allclose ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  let n = length a in
  n = length b
  &&
  let i = ref 0 in
  while !i < n && close ~rtol ~atol a.data.(!i) b.data.(!i) do
    incr i
  done;
  !i = n

(* NaN wins, as with [Float.max] *)
let max_abs_diff a b =
  if length a <> length b then infinity
  else begin
    let m = ref 0.0 in
    for i = 0 to length a - 1 do
      let d = Float.abs (a.data.(i) -. b.data.(i)) in
      if d > !m || d <> d then m := d
    done;
    !m
  end

let mismatch_count ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  if length a <> length b then max (length a) (length b)
  else begin
    let bad = ref 0 in
    for i = 0 to length a - 1 do
      if not (close ~rtol ~atol a.data.(i) b.data.(i)) then incr bad
    done;
    !bad
  end
