(* The list-based schedulers, kept as the oracle for the index-based
   picks of [Game.run]: each built-in [Sched.t] variant is defined here
   as a pick over the [runnable] list the game used to build at every
   move (thread order, minus the picks found blocked at this move).
   Running a game under [custom s] replays [s] through that definition. *)
open Ccal_core

let round_robin ~step _ ~runnable =
  match runnable with
  | [] -> None
  | _ ->
    let sorted = List.sort_uniq Stdlib.compare runnable in
    Some (List.nth sorted (step mod List.length sorted))

let random seed ~step _ ~runnable =
  match runnable with
  | [] -> None
  | _ ->
    let n = List.length runnable in
    Some (List.nth runnable (Sched.splitmix ((seed * 1_000_003) + step) mod n))

(* The cursor is the closure's: one value per play. *)
let of_trace trace =
  let remaining = ref trace in
  fun ~step log ~runnable ->
    let rec next () =
      match !remaining with
      | [] -> round_robin ~step log ~runnable
      | i :: rest ->
        remaining := rest;
        if List.mem i runnable then Some i else next ()
    in
    next ()

(* A fresh list-based pick for [s]. *)
let pick : Sched.t -> Sched.pick = function
  | Sched.Round_robin -> round_robin
  | Sched.Random seed -> random seed
  | Sched.Trace { choices; _ } -> of_trace choices
  | Sched.Custom { pick; _ } -> pick

(* [s] run through the oracle: same name, list-based pick. *)
let custom s = Sched.Custom { name = Sched.name s; pick = pick s }
