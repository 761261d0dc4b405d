type tid = int

type t = {
  src : tid;
  tag : string;
  args : Value.t list;
  ret : Value.t;
}

let make ?(args = []) ?(ret = Value.unit) src tag = { src; tag; args; ret }

let obj_of_args = function Value.Vint b :: _ -> Some b | _ -> None

let switch_tag = "switch"
let switch i = make i switch_tag
let is_switch e = String.equal e.tag switch_tag

let equal a b =
  a.src = b.src
  && String.equal a.tag b.tag
  && (try List.for_all2 Value.equal a.args b.args with Invalid_argument _ -> false)
  && Value.equal a.ret b.ret

let hash (e : t) = Hashtbl.hash e (* = the hash of the tuple (src, tag, args, ret) *)

let compare a b =
  let c = Stdlib.compare a.src b.src in
  if c <> 0 then c
  else
    let c = String.compare a.tag b.tag in
    if c <> 0 then c
    else
      let c = List.compare Value.compare a.args b.args in
      if c <> 0 then c else Value.compare a.ret b.ret

let pp fmt e =
  match e.args with
  | [] -> Format.fprintf fmt "%d.%s->%a" e.src e.tag Value.pp e.ret
  | args ->
    Format.fprintf fmt "%d.%s(%a)->%a" e.src e.tag
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",") Value.pp)
      args Value.pp e.ret

let to_string e = Format.asprintf "%a" pp e
