type t = {
  name : string;
  apply : Log.t -> Log.t;
}

let id = { name = "id"; apply = (fun l -> l) }

let of_events name translate =
  { name; apply = (fun l -> Log.map_events translate l) }

let of_log_fn name apply = { name; apply }

(* One lookup per event of every related log: a [String.equal] walk, not
   [List.assoc_opt]'s polymorphic compare. *)
let rec rule tag = function
  | [] -> None
  | (t, r) :: rest -> if String.equal t tag then Some r else rule tag rest

let of_table name ?(default = `Keep) rules =
  let translate (e : Event.t) =
    match rule e.tag rules with
    | Some (`To tag') -> [ { e with tag = tag' } ]
    | Some `Drop -> []
    | None -> ( match default with `Keep -> [ e ] | `Drop -> [])
  in
  of_events name translate

let compose r s =
  if r == id then s
  else if s == id then r
  else { name = s.name ^ " o " ^ r.name; apply = (fun l -> s.apply (r.apply l)) }

let apply r l = r.apply l

let related r l l' = Log.equal (apply r l) l'
