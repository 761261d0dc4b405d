open Ccal_core

(* Scan thread [i]'s lock events, returning [None] on a protocol violation
   or [Some held] with the locks currently held. *)
let scan ~acq_tag ~rel_tag i l =
  let step acc (e : Event.t) =
    match acc with
    | None -> None
    | Some held ->
      if e.src <> i then acc
      else if String.equal e.tag acq_tag then
        match Event.obj_of_args e.Event.args with
        | Some b -> if List.mem b held then None else Some (b :: held)
        | None -> None
      else if String.equal e.tag rel_tag then
        match Event.obj_of_args e.Event.args with
        | Some b ->
          if List.mem b held then Some (List.filter (fun x -> x <> b) held)
          else None
        | None -> None
      else acc
  in
  List.fold_left step (Some []) (Log.chronological l)

let lock_wellformed ~acq_tag ~rel_tag =
  Rely_guarantee.make
    (Printf.sprintf "wellformed(%s/%s)" acq_tag rel_tag)
    (fun i l -> scan ~acq_tag ~rel_tag i l <> None)

let releases_within ~bound ~acq_tag ~rel_tag =
  Rely_guarantee.make
    (Printf.sprintf "releases-within(%d,%s/%s)" bound acq_tag rel_tag)
    (fun i l ->
      (* For each lock currently held by [i], count the events logged since
         the acquisition. *)
      let rec go held = function
        | [] -> List.for_all (fun (_, age) -> age <= bound) held
        | (e : Event.t) :: rest ->
          let held = List.map (fun (b, age) -> b, age + 1) held in
          let held =
            if e.src <> i then held
            else if String.equal e.tag acq_tag then
              match Event.obj_of_args e.Event.args with
              | Some b -> (b, 0) :: held
              | None -> held
            else if String.equal e.tag rel_tag then
              match Event.obj_of_args e.Event.args with
              | Some b -> List.filter (fun (b', _) -> b' <> b) held
              | None -> held
            else held
          in
          if List.exists (fun (_, age) -> age > bound) held then false
          else go held rest
      in
      go [] (Log.chronological l))

let lock_condition ?(bound = 64) ~acq_tag ~rel_tag () =
  Rely_guarantee.conj
    (lock_wellformed ~acq_tag ~rel_tag)
    (releases_within ~bound ~acq_tag ~rel_tag)
