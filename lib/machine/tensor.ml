open Xpiler_ir
type t = { dtype : Dtype.t; data : float array }

let create ?(dtype = Dtype.F32) n = { dtype; data = Array.make n 0.0 }
let of_array ?(dtype = Dtype.F32) data = { dtype; data }
let length t = Array.length t.data
let get t i = t.data.(i)
let set t i v = t.data.(i) <- v
let fill t v = Array.fill t.data 0 (Array.length t.data) v
let copy t = { t with data = Array.copy t.data }

let blit ~src ~dst =
  if length src <> length dst then invalid_arg "Tensor.blit: length mismatch";
  Array.blit src.data 0 dst.data 0 (length src)

let random rng ?(dtype = Dtype.F32) n =
  let data =
    Array.init n (fun _ ->
        if Dtype.is_float dtype then Xpiler_util.Rng.float rng 2.0 -. 1.0
        else float_of_int (Xpiler_util.Rng.int_in rng (-8) 7))
  in
  { dtype; data }

let close ~rtol ~atol a b = Float.abs (a -. b) <= atol +. (rtol *. Float.abs b)

let allclose ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  length a = length b
  && Array.for_all2 (fun x y -> close ~rtol ~atol x y) a.data b.data

let max_abs_diff a b =
  if length a <> length b then infinity
  else
    let m = ref 0.0 in
    Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i)))) a.data;
    !m

let mismatch_count ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  if length a <> length b then max (length a) (length b)
  else begin
    let bad = ref 0 in
    for i = 0 to length a - 1 do
      if not (close ~rtol ~atol a.data.(i) b.data.(i)) then incr bad
    done;
    !bad
  end

let to_string ?(max_elems = 16) t =
  let n = min max_elems (length t) in
  let elems = List.init n (fun i -> Printf.sprintf "%g" t.data.(i)) in
  let suffix = if length t > n then "; ..." else "" in
  Printf.sprintf "[%s%s] (%d x %s)" (String.concat "; " elems) suffix (length t)
    (Dtype.to_string t.dtype)
