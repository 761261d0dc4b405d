type t =
  | Ret of Value.t
  | Call of call

and call = {
  prim : string;
  args : Value.t list;
  k : Value.t -> t;
}

let ret v = Ret v
let ret_unit = Ret Value.unit

let call prim args = Call { prim; args; k = ret }

let rec bind p f =
  match p with
  | Ret v -> f v
  | Call c -> Call { c with k = (fun v -> bind (c.k v) f) }

let ( let* ) = bind

let seq a b = bind a (fun _ -> b)

let rec seq_all = function
  | [] -> ret_unit
  | [ p ] -> p
  | p :: rest -> bind p (fun _ -> seq_all rest)

module Module = struct
  module Smap = Map.Make (String)

  type prog = t

  type nonrec t = (Value.t list -> prog) Smap.t

  let empty = Smap.empty

  let of_bodies bodies =
    List.fold_left
      (fun m (name, body) ->
        if Smap.mem name m then
          invalid_arg ("Prog.Module.of_bodies: duplicate primitive " ^ name)
        else Smap.add name body m)
      empty bodies

  let names m = List.map fst (Smap.bindings m)
  let find name m = Smap.find_opt name m

  let union a b =
    Smap.union
      (fun name _ _ ->
        invalid_arg ("Prog.Module.union: primitive implemented twice: " ^ name))
      a b

  let rec link m p =
    match p with
    | Ret _ -> p
    | Call c -> (
      match Smap.find_opt c.prim m with
      | Some body -> bind (body c.args) (fun v -> link m (c.k v))
      | None -> Call { c with k = (fun v -> link m (c.k v)) })

  let stack ~lower ~upper =
    union lower (Smap.map (fun body args -> link lower (body args)) upper)
end

let steps_bound_exceeded = "step bound exceeded"
