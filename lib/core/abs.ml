module Smap = Map.Make (String)

type t = Value.t Smap.t

let empty = Smap.empty

let find k a = Smap.find_opt k a

let get k a = match find k a with Some v -> v | None -> Value.unit

let set k v a = Smap.add k v a

let fields a = Smap.bindings a

let equal a b = Smap.equal Value.equal a b

let pp fmt a =
  Format.fprintf fmt "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
       (fun fmt (k, v) -> Format.fprintf fmt "%s=%a" k Value.pp v))
    (fields a)
