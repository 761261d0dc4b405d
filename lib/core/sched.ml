type pick = step:int -> Log.t -> runnable:Event.tid list -> Event.tid option

type t =
  | Round_robin
  | Random of int
  | Trace of { name : string; tagged : bool; choices : Event.tid list }
  | Custom of { name : string; pick : pick }

(* SplitMix-style avalanche with constants in OCaml's 63-bit int range. *)
let splitmix x =
  let x = (x * 0x2545F491) + 0x9E3779B9 in
  let x = (x lxor (x lsr 16)) * 0x45D9F3B in
  let x = (x lxor (x lsr 13)) * 0xC2B2AE35 in
  (* [abs min_int] is still negative: mask the sign bit away so the result
     is non-negative for every input, including [min_int]. *)
  abs (x lxor (x lsr 16)) land max_int

let round_robin = Round_robin
let random ~seed = Random seed

let of_trace ?tag choices =
  Trace { name = Option.value tag ~default:"trace"; tagged = Option.is_some tag; choices }

let default_suite ~seeds =
  round_robin :: List.init seeds (fun k -> random ~seed:(k + 1))

let name = function
  | Round_robin -> "round-robin"
  | Random seed -> Printf.sprintf "random(seed=%d)" seed
  | Trace { name; tagged = false; _ } -> name
  | Trace { name; tagged = true; choices } ->
    Printf.sprintf "%s:[%s]" name (String.concat "," (List.map string_of_int choices))
  | Custom { name; _ } -> name
