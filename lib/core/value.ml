type t =
  | Vunit
  | Vint of int
  | Vbool of bool
  | Vpair of t * t
  | Vlist of t list

exception Type_error of string

let unit = Vunit
let int n = Vint n
let bool b = Vbool b
let pair a b = Vpair (a, b)
let list vs = Vlist vs

let rec equal a b =
  match a, b with
  | Vunit, Vunit -> true
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vpair (x1, y1), Vpair (x2, y2) -> equal x1 x2 && equal y1 y2
  | Vlist xs, Vlist ys ->
    (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | (Vunit | Vint _ | Vbool _ | Vpair _ | Vlist _), _ -> false

let rec compare a b =
  match a, b with
  | Vunit, Vunit -> 0
  | Vunit, _ -> -1
  | _, Vunit -> 1
  | Vint x, Vint y -> Stdlib.compare x y
  | Vint _, _ -> -1
  | _, Vint _ -> 1
  | Vbool x, Vbool y -> Stdlib.compare x y
  | Vbool _, _ -> -1
  | _, Vbool _ -> 1
  | Vpair (x1, y1), Vpair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Vpair _, _ -> -1
  | _, Vpair _ -> 1
  | Vlist xs, Vlist ys -> List.compare compare xs ys

let rec pp fmt = function
  | Vunit -> Format.pp_print_string fmt "()"
  | Vint n -> Format.pp_print_int fmt n
  | Vbool b -> Format.pp_print_bool fmt b
  | Vpair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | Vlist vs ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp)
      vs

let to_string v = Format.asprintf "%a" pp v

let to_int = function
  | Vint n -> n
  | v -> raise (Type_error ("expected int, got " ^ to_string v))

let to_list = function
  | Vlist vs -> vs
  | _ -> raise (Type_error "expected list")
