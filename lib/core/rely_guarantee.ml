type t = {
  name : string;
  holds : Event.tid -> Log.t -> bool;
}

let always = { name = "true"; holds = (fun _ _ -> true) }

let make name holds = { name; holds }

let conj a b =
  if a == always then b
  else if b == always then a
  else
    {
      name = Printf.sprintf "(%s /\\ %s)" a.name b.name;
      holds = (fun i l -> a.holds i l && b.holds i l);
    }

let same a b = String.equal a.name b.name
