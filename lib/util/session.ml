(* Domain-local translation state. See session.mli for the contract. *)

type 'a t = { key : 'a Domain.DLS.key; init : unit -> 'a }
type any = Any : 'a t -> any

(* every value ever made, for [fresh]; values are made at module
   initialization, but an atomic keeps a late [make] on another domain safe *)
let registry : any list Atomic.t = Atomic.make []

let make init =
  let v = { key = Domain.DLS.new_key init; init } in
  let rec register () =
    let l = Atomic.get registry in
    if not (Atomic.compare_and_set registry l (Any v :: l)) then register ()
  in
  register ();
  v

let get v = Domain.DLS.get v.key
let set v x = Domain.DLS.set v.key x

let with_value v x f =
  let old = get v in
  set v x;
  Fun.protect ~finally:(fun () -> set v old) f

let fresh f =
  let restores =
    List.map
      (fun (Any v) ->
        let old = get v in
        set v (v.init ());
        fun () -> set v old)
      (Atomic.get registry)
  in
  Fun.protect ~finally:(fun () -> List.iter (fun restore -> restore ()) restores) f
