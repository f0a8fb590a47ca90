(* Hash table plus an intrusive doubly-linked recency list: the head is the
   most recently used entry, the tail the next to evict. *)

module Make (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type 'a node = {
    mutable key : H.t;
    mutable value : 'a;
    mutable prev : 'a node option;  (** towards the head (more recent) *)
    mutable next : 'a node option;  (** towards the tail (less recent) *)
  }

  type 'a t = {
    capacity : int;
    table : 'a node Tbl.t;
    mutable head : 'a node option;
    mutable tail : 'a node option;
  }

  let create capacity =
    if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
    { capacity; table = Tbl.create (min capacity 1024); head = None; tail = None }

  let length t = Tbl.length t.table

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let find t k =
    match Tbl.find_opt t.table k with
    | None -> None
    | Some n ->
      (match t.head with
      | Some h when h == n -> ()
      | _ ->
        unlink t n;
        push_front t n);
      Some n.value

  let replace t k v =
    match Tbl.find_opt t.table k with
    | Some n ->
      (* like [Hashtbl.replace], the new key replaces the equal old one *)
      n.key <- k;
      n.value <- v;
      Tbl.replace t.table k n;
      unlink t n;
      push_front t n;
      false
    | None ->
      let evicted =
        Tbl.length t.table >= t.capacity
        &&
        match t.tail with
        | Some last ->
          unlink t last;
          Tbl.remove t.table last.key;
          true
        | None -> false
      in
      let n = { key = k; value = v; prev = None; next = None } in
      Tbl.replace t.table k n;
      push_front t n;
      evicted

  let fold f t acc =
    let rec go acc = function None -> acc | Some n -> go (f n.key n.value acc) n.next in
    go acc t.head

  let clear t =
    Tbl.reset t.table;
    t.head <- None;
    t.tail <- None
end
