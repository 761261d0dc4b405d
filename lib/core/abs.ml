module Smap = Map.Make (String)

type t = Value.t Smap.t

let empty = Smap.empty


let get k a = match Smap.find_opt k a with Some v -> v | None -> Value.unit

let set k v a = Smap.add k v a

let fields a = Smap.bindings a

let equal a b = Smap.equal Value.equal a b
